package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"doppiodb/internal/fpga"
	"doppiodb/internal/token"
	"doppiodb/internal/topdown"
	"doppiodb/internal/workload"
)

// This file is the bottleneck-attribution sweep: the same query on fresh
// 1..4-engine fabrics, read through the topdown accounting instead of the
// throughput counters. It reproduces §7.3's saturation story as verdicts:
// a lone engine cannot outrun the QPI link (compute-bound, link near 90%
// busy), while four engines contending for the same link spend most of
// their cycles waiting on grants (memory-bound, link pinned ~99%).
//
// The sweep runs a single client issuing back-to-back queries — concurrency
// would push every query into the admission queue and turn the sweep
// queue-bound, hiding the fabric-side flip the experiment is after — and
// everything downstream is simulated time, so reruns are bit-identical.

// topdownEngineSweep is the engine counts the sweep visits.
var topdownEngineSweep = []int{1, 2, 3, 4}

// topdownQueries is how many back-to-back queries each point issues: enough
// for the cumulative fabric ledgers to dwarf the first query's config
// generation, small enough to keep the sweep in tier-1 time.
const topdownQueries = 6

// TopdownPoint is one engine count's verdict plus the fabric ledger shares
// behind it.
type TopdownPoint struct {
	Engines int `json:"engines"`
	Queries int `json:"queries"`
	// Verdict is the sweep point's consensus per-query verdict (plurality;
	// deterministic). Verdicts is the full tally.
	Verdict  string           `json:"verdict"`
	Verdicts map[string]int64 `json:"verdicts"`
	// Fabric ledger shares, in percent of the cumulative engine walls.
	BusyPct        float64 `json:"busy_pct"`
	StallInputPct  float64 `json:"stall_input_pct"`
	StallSwitchPct float64 `json:"stall_switch_pct"`
	StallOutputPct float64 `json:"stall_output_pct"`
	ConfigPct      float64 `json:"config_pct"`
	IdlePct        float64 `json:"idle_pct"`
	// LinkBusyPct is the QPI link's busy share of its wall.
	LinkBusyPct float64 `json:"link_busy_pct"`
	// RawGBs is the achieved link rate over the run's simulated span.
	RawGBs float64 `json:"raw_gbs"`
	// Conserved reports the hard invariant: every engine ledger and the
	// link ledger summed exactly to their walls.
	Conserved bool `json:"conserved"`
}

// TopdownResult is the sweep: one point per engine count.
type TopdownResult struct {
	Points []TopdownPoint `json:"points"`
}

// Topdown runs the bottleneck-attribution sweep.
func Topdown(cfg Config) (*TopdownResult, error) {
	cfg = cfg.withDefaults()
	out := &TopdownResult{}
	for _, engines := range topdownEngineSweep {
		p, err := topdownPoint(cfg, engines)
		if err != nil {
			return nil, fmt.Errorf("experiments: topdown %d engine(s): %w", engines, err)
		}
		out.Points = append(out.Points, *p)
	}
	return out, nil
}

func topdownPoint(cfg Config, engines int) (*TopdownPoint, error) {
	dep := fpga.DefaultDeployment()
	dep.Engines = engines
	s, err := cfg.newSystem(&dep)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	g := workload.NewGenerator(cfg.Seed, workload.DefaultStrLen)
	rows, _ := g.Table(cfg.MeasuredRows, workload.HitQ1, cfg.Selectivity)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		return nil, err
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		return nil, err
	}

	start := s.HAL.SimEpoch()
	verdicts := make(map[string]int64)
	var bytes int64
	for q := 0; q < topdownQueries; q++ {
		res, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{})
		if err != nil {
			return nil, err
		}
		bytes += res.HW.Bytes
		if res.Topdown != nil {
			verdicts[string(res.Topdown.Verdict)]++
		}
	}
	span := s.HAL.SimEpoch() - start

	fabric := s.HAL.Topdown()
	total := fabric.Total()
	p := &TopdownPoint{
		Engines:        engines,
		Queries:        topdownQueries,
		Verdict:        pluralityVerdict(verdicts),
		Verdicts:       verdicts,
		BusyPct:        topdown.Pct(total.Busy, total.Wall),
		StallInputPct:  topdown.Pct(total.StallInput, total.Wall),
		StallSwitchPct: topdown.Pct(total.StallSwitch, total.Wall),
		StallOutputPct: topdown.Pct(total.StallOutput, total.Wall),
		ConfigPct:      topdown.Pct(total.Config, total.Wall),
		IdlePct:        topdown.Pct(total.Idle, total.Wall),
		LinkBusyPct:    fabric.Link.BusyPct(),
		Conserved:      fabric.Conserved(),
	}
	if span > 0 {
		p.RawGBs = float64(bytes) / span.Seconds() / 1e9
	}
	return p, nil
}

// pluralityVerdict picks the most frequent verdict, breaking count ties by
// name so the result is deterministic.
func pluralityVerdict(tally map[string]int64) string {
	names := make([]string, 0, len(tally))
	for v := range tally {
		names = append(names, v)
	}
	sort.Strings(names)
	best := ""
	var n int64 = -1
	for _, v := range names {
		if tally[v] > n {
			best, n = v, tally[v]
		}
	}
	return best
}

// Render prints the sweep next to §7.3's expectation.
func (r *TopdownResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Topdown bottleneck attribution (1 client, back-to-back Q1, fresh fabric per point)")
	fmt.Fprintf(w, "  %-7s %-14s %6s %9s %8s %7s %8s  %s\n",
		"engines", "verdict", "busy%", "stall-in%", "config%", "idle%", "qpi-b%", "conservation")
	for _, p := range r.Points {
		cons := "exact"
		if !p.Conserved {
			cons = "VIOLATED"
		}
		fmt.Fprintf(w, "  %-7d %-14s %6.2f %9.2f %8.2f %7.2f %8.2f  %s\n",
			p.Engines, p.Verdict, p.BusyPct, p.StallInputPct,
			p.ConfigPct, p.IdlePct, p.LinkBusyPct, cons)
	}
	fmt.Fprintln(w, "  expected: compute-bound at 1 engine (link has headroom), memory-bound by 4 (QPI saturated, §7.3)")
}
