package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"doppiodb/internal/experiments"
)

// tinySizes keeps the smoke test to a few seconds; the pool still exceeds
// the 128-entry caches.
var tinySizes = sizes{
	bigRows:   2_000,
	smallRows: 300,
	shortRows: 300,
	pool:      160,
	figures:   experiments.Config{SampleRows: 400, Selectivity: 0.2, MeasuredRows: 600, Clients: 2},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, got map[string]value, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("run printed %d metrics, %d are declared", len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %s was not printed", d.Name)
			continue
		}
		if v.Unit != d.Unit || v.Unit == "" {
			t.Errorf("metric %s printed with unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload for at least one op, untraced and traced,
// and checks the shape of what the driver prints. A figure_regen pass costs
// over a second whatever the sample size (its closed-form sweeps are sized
// by the paper's table), so it runs the traced invocation only; the untraced
// path is the same code the other three exercise.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 1, seconds: 0.05, sizes: tinySizes, setups: 1}
			sql := w.name != "figure_regen"
			if sql {
				res := smokeRun(t, w, cfg)
				checkMetrics(t, res.Metrics, endToEnd)
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, res.Metrics[d.Name].Value)
					}
				}
			}

			cfg.traced = true
			first := smokeRun(t, w, cfg)
			checkMetrics(t, first.Metrics, perLayer)
			if err := checkNesting(first.spans); err != nil {
				t.Error(err)
			}
			ops := 0
			for _, s := range first.spans {
				if s.Name == "op" && s.Parent == 0 {
					ops++
				}
			}
			if ops < 1 {
				t.Error("traced run recorded no op span")
			}
			if !sql || w.clients > 1 {
				return
			}
			second := smokeRun(t, w, cfg)
			for _, d := range perLayer {
				a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
				if d.Exact && a != b {
					t.Errorf("exact count %s read %v then %v", d.Name, a, b)
				}
			}
		})
	}
}

func smokeRun(t *testing.T, w workloadDef, cfg runConfig) *result {
	t.Helper()
	res, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("traced=%v: %d of %d ops failed: %v", cfg.traced, res.Failed, res.Attempted, res.info["first_error"])
	}
	return res
}

// TestDeclarations checks the metric and workload tables against the
// contract's limits and against BENCHMARK.json.
func TestDeclarations(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8/16/128", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if (d.Span == "") != (d.Scale == 0) {
			t.Errorf("metric %s: span and scale go together", d.Name)
		}
	}

	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver runs %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the driver %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the driver prints %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the driver %s %s %s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound != d.Bound || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the driver's %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd, true)
	same("per-layer", file.PerLayer, perLayer, false)
}
