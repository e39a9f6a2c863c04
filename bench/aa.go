package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA measures the same code n times per workload, each set with another
// seed and in a process of its own, as the acceptance check does (state the
// program keeps process-wide, such as what figure_regen retains per pass,
// must not carry from one set into the next), and prints for every end-to-end metric
// the median, the quartiles and their distance as a share of the median. It
// fails when a spread exceeds the metric's bound, and, on the single-client
// workloads, when a count that must repeat exactly differs between two traced
// runs of one seed, the replay's stages exceed the query they replay by more
// than a tenth, or tracing costs more than a twentieth.
func runAA(selected []workloadDef, cfg runConfig, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 sets")
	}
	var bad []string
	for _, w := range selected {
		samples := make(map[string][]float64)
		cfg.traced = false
		for i := 0; i < n; i++ {
			c := cfg
			c.seed += int64(i)
			res, err := runChild(w, c)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("%s seed %d: %d of %d ops failed", w.name, c.seed, res.Failed, res.Attempted))
			}
			for name, v := range res.Metrics {
				samples[name] = append(samples[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			xs := samples[d.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			// A bound is its floor or twice the spread seen, whichever is
			// larger; the contract caps it at a quarter.
			suggest := math.Min(math.Max(d.Bound, 2*spread), 0.25)
			printJSON(map[string]any{"aa": map[string]any{
				"workload": w.name, "metric": d.Name, "unit": d.Unit, "sets": n,
				"median": med, "q1": q1, "q3": q3, "spread": spread,
				"bound": d.Bound, "suggested_bound": suggest,
			}})
			if d.Name != "setup_s" && spread > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: spread %.4f exceeds bound %.2f", w.name, d.Name, spread, d.Bound))
			}
		}
		if w.clients > 1 {
			continue
		}
		cfg.traced = true
		var runs [2]*result
		for i := range runs {
			var err error
			if runs[i], err = runChild(w, cfg); err != nil {
				return err
			}
		}
		for _, d := range perLayer {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			if d.Exact && a != b {
				bad = append(bad, fmt.Sprintf("%s %s: count %v then %v on one seed", w.name, d.Name, a, b))
			}
		}
		// The replay must account for the query it replays without
		// exceeding it, and tracing must stay cheap.
		for _, r := range runs {
			if o := r.Metrics["trace_overhead_frac"].Value; o > 0.05 {
				bad = append(bad, fmt.Sprintf("%s: trace_overhead_frac %.3f exceeds 0.05", w.name, o))
			}
			for label, st := range r.stages {
				if st.Share > 1.1 {
					bad = append(bad, fmt.Sprintf("%s %s: replay stages sum to %.2f of the query", w.name, label, st.Share))
				}
			}
		}
	}
	for _, b := range bad {
		fmt.Println("A/A:", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("A/A check failed on %d points", len(bad))
	}
	fmt.Println("A/A: every end-to-end spread is within its bound and every exact count repeated")
	return nil
}

// runChild runs one workload once in a child process of this binary and
// parses the two lines it prints.
func runChild(w workloadDef, cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-trace-out", "")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, cfg.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 2 {
		return nil, fmt.Errorf("%s seed %d: child printed %d lines, want 2", w.name, cfg.seed, len(lines))
	}
	var head struct {
		Info struct {
			Stages map[string]stageShare `json:"replay_share_of_query"`
		} `json:"info"`
	}
	res := &result{}
	if err := json.Unmarshal(lines[0], &head); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(lines[1], res); err != nil {
		return nil, err
	}
	res.stages = head.Info.Stages
	return res, nil
}
