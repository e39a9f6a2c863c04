// Command bench is the repository's host-clock benchmark: four closed-loop
// workloads over the doppioDB stack, every result checked against an
// independent oracle, end-to-end metrics from an untraced run and per-layer
// metrics from a traced run with a staged replay. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains the
// workloads and metrics.
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench -workload offload_scan -trace 0  one run, as the driver issues it
//	go run ./bench -aa 5                            five A/A sets and the bounds check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"doppiodb/internal/telemetry"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "seconds one run measures")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	traceOut := flag.String("trace-out", "bench/out/trace-<workload>.json", "Chrome-trace file of a traced run (\"\" writes none)")
	aa := flag.Int("aa", 0, "run N A/A sets and check every end-to-end metric's spread against its bound")
	flag.Parse()

	// The sandbox has two CPUs and no workload uses more than two client
	// goroutines; pinning keeps runs comparable across hosts with more.
	runtime.GOMAXPROCS(2)

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workloadDef{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traceOut: *traceOut, sizes: fullSizes, setups: 3}
	if *aa > 0 {
		if err := runAA(selected, cfg, *aa); err != nil {
			fatal(err)
		}
		return
	}
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			cfg.traced = traced
			res, err := runWorkload(w, cfg)
			if err != nil {
				fatal(err)
			}
			printJSON(map[string]any{"run": header(w, cfg), "info": res.info})
			printJSON(res)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// header identifies a run, so two result files can be checked for
// comparability before they are compared.
func header(w workloadDef, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"clients":    w.clients,
		"traced":     cfg.traced,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"setups":     cfg.setups,
		"warmup_ops": warmupOps,
		"go_version": runtime.Version(),
		"build":      telemetry.Build(),
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
