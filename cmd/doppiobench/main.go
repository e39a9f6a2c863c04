// Command doppiobench regenerates every table and figure of the paper's
// evaluation and prints them next to the published values.
//
// Usage:
//
//	doppiobench [-experiment all|none|table1|fig8|...|fig15|throughput|soak]
//	            [-sample N] [-seed S] [-selectivity F]
//	            [-clients N] [-measured-rows N]
//	            [-json] [-metrics-out FILE.json] [-trace-out FILE.json]
//	            [-explain] [-explain-out FILE.json]
//	            [-baseline FILE.json] [-baseline-against FILE.json]
//	            [-baseline-tol PCT] [-baseline-report FILE.json]
//	            [-querylog-out FILE.jsonl]
//	            [-topdown] [-topdown-out FILE.json]
//	            [-mon ADDR] [-faults SPEC]
//
// -sample sets how many rows the functional engines execute per
// measurement (work is extrapolated to the paper's row counts); larger
// samples tighten the work estimates at the cost of runtime. -clients and
// -measured-rows size the measured concurrent-throughput runs (Figures 8
// and 11 and the dedicated `throughput` sweep): N client goroutines issue
// live queries through the asynchronous device runtime and the achieved
// rate is read off the simulated device timeline. -json replaces
// the text tables with one machine-readable JSON document holding every
// experiment result plus the final telemetry snapshot; -metrics-out
// additionally writes the telemetry registry (counters, gauges, histograms
// accumulated across every simulated system the run booted) to a file.
//
// -faults injects hardware faults into every simulated system the run
// boots (spec grammar in internal/faults: stuck-done=P, config-corrupt=P,
// status-corrupt=P, handshake-loss=P, qpi=F, engine-drop=E[@AFTER][+RECOVER],
// seed=N). Queries retried or degraded by the robustness layer show up in
// the hal.faults.* / core.fallback.* counters of the telemetry snapshot and
// in the health section of the -json / -metrics-out documents.
//
// main builds one sink set (registry, flight recorder, calibration auditor,
// observer) and hands it to every System through experiments.Config.Base;
// the -json sections, the -…-out files and -mon all read that set back.
//
// Observability: -trace-out FILE writes the flight recorder's window as a
// Chrome-trace JSON timeline (open in ui.perfetto.dev); -mon ADDR serves
// /metrics, /health, /trace, /calibration and /debug/pprof while the run is
// in progress; SIGQUIT dumps the flight-recorder window to stderr without
// stopping the run. Every query the experiments issue feeds the cost-model
// calibration auditor: -explain prints the per-term prediction-error report
// after the run, -explain-out writes it (plus the most recent decision
// records) as JSON, and the -json document carries it in "calibration".
//
// Perf-regression gate: -baseline FILE compares this run's results (or,
// with -baseline-against FILE, a previously written -json document — use
// -experiment none to compare two files without running anything) against
// a baseline -json document and exits 3 when a throughput-class metric
// dropped more than -baseline-tol percent (default 10). -baseline-report
// writes the delta report as JSON for CI to validate. Every query also
// lands in the wide-event query log: -querylog-out exports the retained
// window as JSON Lines, and the -json document carries the log stats in
// "querylog", the windowed SLO report in "slo", and the binary's build
// identity in "build".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"doppiodb/cmd/internal/boot"
	"doppiodb/internal/core"
	"doppiodb/internal/doppiomon"
	"doppiodb/internal/experiments"
	"doppiodb/internal/explain"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/hal"
	"doppiodb/internal/obs"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/topdown"
)

// namedResult pairs an experiment result with its type-derived name for the
// -json document.
type namedResult struct {
	Experiment string `json:"experiment"`
	Result     any    `json:"result"`
}

func main() {
	var (
		which    = flag.String("experiment", "all", "experiment to run (all, table1, fig8..fig15)")
		sampl    = flag.Int("sample", experiments.DefaultSampleRows, "functional sample rows")
		seed     = flag.Int64("seed", 1, "workload seed")
		sel      = flag.Float64("selectivity", experiments.DefaultSelectivity, "hit selectivity")
		clients  = flag.Int("clients", experiments.DefaultClients, "concurrent client goroutines for the measured throughput runs")
		mrows    = flag.Int("measured-rows", experiments.DefaultMeasuredRows, "per-query rows of the measured throughput runs")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
		metOut   = flag.String("metrics-out", "", "write the telemetry snapshot to this JSON file")
		explainF = flag.Bool("explain", false, "print the cost-model calibration report after the run")
		explOut  = flag.String("explain-out", "", "write the calibration report and recent decision records to this JSON file")
		traceOut = flag.String("trace-out", "", "write the flight-recorder timeline as Chrome-trace JSON to this file")
		monAddr  = flag.String("mon", "", "serve the live monitoring endpoint on this address (e.g. 127.0.0.1:9137)")
		fspec    = flag.String("faults", "", "hardware fault injection spec, e.g. 'stuck-done=0.2,engine-drop=1@8+3,qpi=0.5,seed=42'")
		baseFile = flag.String("baseline", "", "baseline -json document; exit 3 if a throughput-class metric regressed past the tolerance")
		baseCur  = flag.String("baseline-against", "", "compare this previously written -json document instead of the current run's results")
		baseTol  = flag.Float64("baseline-tol", 10, "regression tolerance for -baseline, in percent")
		baseRep  = flag.String("baseline-report", "", "write the -baseline delta report to this JSON file")
		qlogOut  = flag.String("querylog-out", "", "write the retained wide-event query log as JSON Lines to this file")
		tdF      = flag.Bool("topdown", false, "print the cumulative topdown utilization summary after the run")
		tdOut    = flag.String("topdown-out", "", "write the topdown utilization summary to this JSON file")
		planF    = flag.Bool("plan", false, "print the executed physical-operator plan of every paper query, then exit")
	)
	flag.Parse()
	cfg := experiments.Config{SampleRows: *sampl, Seed: *seed, Selectivity: *sel,
		Clients: *clients, MeasuredRows: *mrows}
	jsonMode = *jsonOut
	if *planF {
		if err := printPlans(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: -plan: %v\n", err)
			os.Exit(1)
		}
		return
	}
	inj, err := boot.Faults(*fspec, "doppiobench: ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doppiobench: %v\n", err)
		os.Exit(2)
	}
	// The one sink set of the run: every System the experiments boot starts
	// from it (soak brings its own), and everything below reads it back.
	sinks := core.Options{
		Telemetry: telemetry.NewRegistry(),
		Recorder:  flightrec.New(0),
		Auditor:   explain.NewAuditor(explain.Options{}),
		Obs:       obs.New(obs.Options{}),
		Faults:    inj,
	}
	cfg.Base = sinks
	rec := sinks.Recorder
	mon, err := boot.Observe("doppiobench", "doppiobench: ", *monAddr, doppiomon.Config{
		Registry: sinks.Telemetry, Recorder: rec, Calibration: sinks.Auditor, Obs: sinks.Obs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doppiobench: %v\n", err)
		os.Exit(2)
	}
	defer mon.Close()

	type exp struct {
		name string
		run  func() error
	}
	out := os.Stdout
	all := []exp{
		// "none" runs nothing: it lets -baseline compare two previously
		// written -json documents without paying for a run.
		{"none", func() error { return nil }},
		{"table1", func() error { r, err := experiments.Table1(cfg); render(r, err, out); return err }},
		{"fig8", func() error { r, err := experiments.Figure8(cfg); render(r, err, out); return err }},
		{"fig9", func() error { r, err := experiments.Figure9(cfg); render(r, err, out); return err }},
		{"fig10", func() error { r, err := experiments.Figure10(cfg); render(r, err, out); return err }},
		{"fig11", func() error { r, err := experiments.Figure11(cfg); render(r, err, out); return err }},
		{"fig12", func() error { r, err := experiments.Figure12(cfg); render(r, err, out); return err }},
		{"fig13", func() error { r, err := experiments.Figure13(cfg); render(r, err, out); return err }},
		{"fig14", func() error {
			a, err := experiments.Figure14a(cfg)
			render(a, err, out)
			if err != nil {
				return err
			}
			b, err := experiments.Figure14b(cfg)
			render(b, err, out)
			if err != nil {
				return err
			}
			c, err := experiments.Figure14c(cfg)
			render(c, err, out)
			return err
		}},
		{"fig15", func() error { r, err := experiments.Figure15(cfg); render(r, err, out); return err }},
		{"throughput", func() error { r, err := experiments.Throughput(cfg); render(r, err, out); return err }},
		{"repeat", func() error { r, err := experiments.Repeat(cfg); render(r, err, out); return err }},
		{"soak", func() error { r, err := experiments.Soak(cfg); render(r, err, out); return err }},
		{"platform", func() error { r, err := experiments.Platform(cfg); render(r, err, out); return err }},
		{"nextgen", func() error { r, err := experiments.NextGen(cfg); render(r, err, out); return err }},
		{"topdown", func() error { r, err := experiments.Topdown(cfg); render(r, err, out); return err }},
		{"ablations", func() error {
			if r, err := experiments.AblationGapHold(cfg); err != nil {
				return err
			} else {
				render(r, err, out)
			}
			if r, err := experiments.AblationArbiter(cfg); err != nil {
				return err
			} else {
				render(r, err, out)
			}
			if r, err := experiments.AblationEngineConfig(cfg); err != nil {
				return err
			} else {
				render(r, err, out)
			}
			if r, err := experiments.AblationSoftEngines(cfg); err != nil {
				return err
			} else {
				render(r, err, out)
			}
			if r, err := experiments.AblationSubstring(cfg); err != nil {
				return err
			} else {
				render(r, err, out)
			}
			r, err := experiments.AblationPrescan(cfg)
			render(r, err, out)
			return err
		}},
	}

	ran := false
	for _, e := range all {
		if *which != "all" && !strings.EqualFold(*which, e.name) {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if !jsonMode {
			fmt.Fprintln(out)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "doppiobench: unknown experiment %q\n", *which)
		os.Exit(2)
	}
	snap := sinks.Telemetry.Snapshot()
	health := hal.SummaryFromMetrics(snap)
	calib := sinks.Auditor.Stats()
	doc := struct {
		Experiments []namedResult       `json:"experiments"`
		Build       telemetry.BuildInfo `json:"build"`
		Metrics     telemetry.Snapshot  `json:"metrics"`
		Health      hal.HealthCounters  `json:"health"`
		Calibration explain.Report      `json:"calibration"`
		SLO         obs.SLOReport       `json:"slo"`
		QueryLog    obs.LogStats        `json:"querylog"`
		Topdown     topdown.Summary     `json:"topdown"`
	}{results, telemetry.Build(), snap, health, calib,
		sinks.Obs.SLO.Report(), sinks.Obs.Log.Stats(),
		topdown.SummaryFromMetrics(snap)}
	if doc.Experiments == nil {
		doc.Experiments = []namedResult{}
	}
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: encode results: %v\n", err)
			os.Exit(1)
		}
	}
	if *metOut != "" {
		// The snapshot document plus a health section; decoding it into a
		// telemetry.Snapshot ignores the extra key, so existing consumers
		// keep working.
		doc := struct {
			telemetry.Snapshot
			Health hal.HealthCounters `json:"health"`
		}{snap, health}
		if err := boot.WriteJSON(*metOut, doc); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: write metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "doppiobench: telemetry snapshot written to %s\n", *metOut)
	}
	if *explainF {
		fmt.Fprintln(os.Stderr, "doppiobench: cost-model calibration report:")
		calib.WriteText(os.Stderr)
	}
	if *tdF {
		fmt.Fprintln(os.Stderr, "doppiobench: topdown utilization summary:")
		doc.Topdown.WriteText(os.Stderr)
	}
	if *tdOut != "" {
		if err := boot.WriteJSON(*tdOut, doc.Topdown); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: write topdown summary: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "doppiobench: topdown summary written to %s (%d rounds)\n",
			*tdOut, doc.Topdown.Rounds)
	}
	if *explOut != "" {
		doc := struct {
			explain.Report
			Records []*explain.Record `json:"records"`
		}{calib, sinks.Auditor.Records(64)}
		if doc.Records == nil {
			doc.Records = []*explain.Record{}
		}
		if err := boot.WriteJSON(*explOut, doc); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: write calibration: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "doppiobench: calibration report written to %s (%d records)\n",
			*explOut, len(doc.Records))
	}
	if *traceOut != "" {
		if err := boot.WriteFile(*traceOut, func(w io.Writer) error {
			return flightrec.WriteChromeTrace(w, rec.Window())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "doppiobench: flight-recorder timeline written to %s (%d events, %d dropped; open in ui.perfetto.dev)\n",
			*traceOut, rec.Len(), rec.Dropped())
	}
	if *qlogOut != "" {
		if err := boot.WriteFile(*qlogOut, func(w io.Writer) error {
			return sinks.Obs.Log.WriteJSONL(w, 0)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: %v\n", err)
			os.Exit(1)
		}
		st := sinks.Obs.Log.Stats()
		fmt.Fprintf(os.Stderr, "doppiobench: query log written to %s (%d events retained of %d submitted)\n",
			*qlogOut, st.Kept, st.Submitted)
	}
	if *baseFile != "" {
		base, err := os.ReadFile(*baseFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: read baseline: %v\n", err)
			os.Exit(2)
		}
		var cur []byte
		if *baseCur != "" {
			if cur, err = os.ReadFile(*baseCur); err != nil {
				fmt.Fprintf(os.Stderr, "doppiobench: read candidate: %v\n", err)
				os.Exit(2)
			}
		} else if cur, err = json.Marshal(doc); err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: encode results for baseline compare: %v\n", err)
			os.Exit(1)
		}
		report, err := obs.CompareBaseline(base, cur, *baseTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doppiobench: baseline compare: %v\n", err)
			os.Exit(2)
		}
		if *baseRep != "" {
			if err := boot.WriteJSON(*baseRep, report); err != nil {
				fmt.Fprintf(os.Stderr, "doppiobench: write baseline report: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "doppiobench: baseline report written to %s\n", *baseRep)
		}
		report.WriteText(os.Stderr)
		if !report.Pass {
			os.Exit(3)
		}
	}
}

// jsonMode switches render from text tables to result collection.
var jsonMode bool

// results accumulates experiment results for the -json document.
var results []namedResult

func render(r any, err error, out io.Writer) {
	if err != nil {
		return
	}
	if jsonMode {
		results = append(results, namedResult{resultName(r), r})
		return
	}
	if v, ok := r.(interface{ Render(io.Writer) }); ok {
		v.Render(out)
	}
}

// resultName derives the experiment name from the result's type
// (e.g. *experiments.Table1Result → "table1").
func resultName(r any) string {
	n := strings.TrimPrefix(fmt.Sprintf("%T", r), "*experiments.")
	return strings.ToLower(strings.TrimSuffix(n, "Result"))
}
