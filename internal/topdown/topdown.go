// Package topdown is the cycle-conserving utilization accounting and
// bottleneck-attribution layer over the simulated fabric. Every simulated
// engine cycle is classified into exactly one bucket — busy (PU compute),
// stall-input (waiting on QPI grants), stall-switch (offset↔heap
// turnaround), stall-output (result write-back drain), config
// (reconfiguration), idle — with the hard invariant that per-engine
// buckets sum exactly to wall cycles. The QPI link keeps a parallel
// busy/arbitration/idle ledger. On top of the raw ledgers a per-query
// analyzer folds the per-job buckets into a verdict (memory-bound /
// compute-bound / config-bound / queue-bound / software-bound) with the
// dominant-bucket percentages.
//
// Buckets and LinkBuckets are the tree's only definitions of the two
// ledgers: internal/memmodel fills them per engine, per job and for the
// link as it simulates a round, and the HAL, core and the exporters carry
// those values (the HAL adding the config bucket it charges itself).
//
// All quantities are simulated picoseconds (sim.Time); nothing here reads
// the wall clock, so topdown records are bit-identical across reruns.
package topdown

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// Buckets classifies a span of engine cycles. The conservation invariant
// Busy+StallInput+StallSwitch+StallOutput+Config+Idle == Wall holds
// exactly for every ledger the memory model builds and the HAL extends;
// per-job buckets set Wall to their own sum (jobs do not own idle time).
type Buckets struct {
	// Busy is time spent draining granted input lines (PU compute).
	Busy sim.Time `json:"busy_ps"`
	// StallInput is time the engine sat ready while the arbiter serviced
	// other engines (waiting on QPI grants).
	StallInput sim.Time `json:"stall_input_ps"`
	// StallSwitch is the offset↔heap turnaround stalls.
	StallSwitch sim.Time `json:"stall_switch_ps"`
	// StallOutput is time draining result write-back lines through the
	// link (the Output Collector's share of the final burst, §5.1).
	StallOutput sim.Time `json:"stall_output_ps"`
	// Config is engine parametrization, charged by the HAL per job.
	Config sim.Time `json:"config_ps"`
	// Idle is time after the engine's last job (or the whole span for an
	// engine with no jobs).
	Idle sim.Time `json:"idle_ps"`
	// Wall is the span all buckets sum to.
	Wall sim.Time `json:"wall_ps"`
}

// Add accumulates o into b, field-wise (walls add too: the cumulative
// ledger of rounds is conserved iff every round was).
func (b *Buckets) Add(o Buckets) {
	b.Busy += o.Busy
	b.StallInput += o.StallInput
	b.StallSwitch += o.StallSwitch
	b.StallOutput += o.StallOutput
	b.Config += o.Config
	b.Idle += o.Idle
	b.Wall += o.Wall
}

// Sum returns the bucket total.
func (b Buckets) Sum() sim.Time {
	return b.Busy + b.StallInput + b.StallSwitch + b.StallOutput + b.Config + b.Idle
}

// Stalled returns the memory-side stall total (input + switch + output).
func (b Buckets) Stalled() sim.Time { return b.StallInput + b.StallSwitch + b.StallOutput }

// Active returns everything but idle.
func (b Buckets) Active() sim.Time { return b.Sum() - b.Idle }

// Conserved reports whether the buckets sum exactly to the wall.
func (b Buckets) Conserved() bool { return b.Sum() == b.Wall }

// LinkBuckets is the QPI link's ledger: transferring, waiting on engine
// turnaround while work is pending, or idle.
type LinkBuckets struct {
	Busy        sim.Time `json:"busy_ps"`
	Arbitration sim.Time `json:"arbitration_ps"`
	Idle        sim.Time `json:"idle_ps"`
	Wall        sim.Time `json:"wall_ps"`
}

// Add accumulates o into l.
func (l *LinkBuckets) Add(o LinkBuckets) {
	l.Busy += o.Busy
	l.Arbitration += o.Arbitration
	l.Idle += o.Idle
	l.Wall += o.Wall
}

// Sum returns the bucket total.
func (l LinkBuckets) Sum() sim.Time { return l.Busy + l.Arbitration + l.Idle }

// Conserved reports whether the buckets sum exactly to the wall.
func (l LinkBuckets) Conserved() bool { return l.Sum() == l.Wall }

// BusyPct returns the link's busy share of its wall in percent.
func (l LinkBuckets) BusyPct() float64 { return Pct(l.Busy, l.Wall) }

// Pct returns part's share of whole in percent with basis-point
// resolution, via integer math so repeated runs render identically.
func Pct(part, whole sim.Time) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part*10000/whole) / 100
}

// EngineReport is one engine's cumulative ledger.
type EngineReport struct {
	Engine int `json:"engine"`
	Buckets
}

// FabricReport is the fabric-wide utilization accounting: one ledger per
// engine plus the link, accumulated across simulation rounds.
type FabricReport struct {
	Engines []EngineReport `json:"engines"`
	Link    LinkBuckets    `json:"link"`
	Rounds  int64          `json:"rounds"`
	// PUOccupancyPct is the PU layer's occupancy (active PUs per
	// engine-cycle) in percent, when the caller has it.
	PUOccupancyPct float64 `json:"pu_occupancy_pct,omitempty"`
}

// Conserved reports whether every engine ledger and the link ledger sum
// exactly to their walls.
func (r FabricReport) Conserved() bool {
	for _, e := range r.Engines {
		if !e.Buckets.Conserved() {
			return false
		}
	}
	return r.Link.Conserved()
}

// Total returns the sum of all engine ledgers.
func (r FabricReport) Total() Buckets {
	var t Buckets
	for _, e := range r.Engines {
		t.Add(e.Buckets)
	}
	return t
}

// WriteText renders the report as an aligned utilization table.
func (r FabricReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "topdown utilization (simulated cycles, %d rounds)\n", r.Rounds)
	fmt.Fprintf(w, "  %-6s %7s %9s %9s %9s %8s %7s  %s\n",
		"unit", "busy%", "stall-in%", "stall-sw%", "stall-out%", "config%", "idle%", "wall")
	for _, e := range r.Engines {
		b := e.Buckets
		fmt.Fprintf(w, "  e%-5d %7.2f %9.2f %9.2f %9.2f %8.2f %7.2f  %s\n",
			e.Engine, Pct(b.Busy, b.Wall), Pct(b.StallInput, b.Wall),
			Pct(b.StallSwitch, b.Wall), Pct(b.StallOutput, b.Wall),
			Pct(b.Config, b.Wall), Pct(b.Idle, b.Wall), b.Wall)
	}
	fmt.Fprintf(w, "  qpi    busy %.2f%%  arbitration %.2f%%  idle %.2f%%  wall %s\n",
		r.Link.BusyPct(), Pct(r.Link.Arbitration, r.Link.Wall),
		Pct(r.Link.Idle, r.Link.Wall), r.Link.Wall)
	if r.PUOccupancyPct > 0 {
		fmt.Fprintf(w, "  pu occupancy %.2f%% (active PUs per engine-cycle)\n", r.PUOccupancyPct)
	}
	if r.Conserved() {
		fmt.Fprintln(w, "  cycle conservation: exact")
	} else {
		fmt.Fprintln(w, "  cycle conservation: VIOLATED")
	}
}

// Summary is the topdown view reconstructed from one registry's telemetry
// counters — the cross-system aggregate doppiobench reports after running
// experiments that boot and tear down many fabrics on a shared registry.
type Summary struct {
	Buckets   Buckets          `json:"buckets"`
	Link      LinkBuckets      `json:"link"`
	Rounds    int64            `json:"rounds"`
	Verdicts  map[string]int64 `json:"verdicts,omitempty"`
	Conserved bool             `json:"conserved"`
}

// Counter names the HAL emits per simulation round; SummaryFromMetrics
// reads them back. Picosecond resolution keeps the conservation check
// exact across the counter round-trip.
const (
	verdictCounterPrefix = "topdown.verdict."
)

// SummaryFromMetrics rebuilds the cumulative topdown accounting from a
// telemetry snapshot.
func SummaryFromMetrics(snap telemetry.Snapshot) Summary {
	c := func(name string) sim.Time { return sim.Time(snap.Counters[name]) }
	s := Summary{
		Buckets: Buckets{
			Busy:        c("topdown.busy_ps"),
			StallInput:  c("topdown.stall_input_ps"),
			StallSwitch: c("topdown.stall_switch_ps"),
			StallOutput: c("topdown.stall_output_ps"),
			Config:      c("topdown.config_ps"),
			Idle:        c("topdown.idle_ps"),
			Wall:        c("topdown.wall_ps"),
		},
		Link: LinkBuckets{
			Busy:        c("topdown.link.busy_ps"),
			Arbitration: c("topdown.link.arbitration_ps"),
			Idle:        c("topdown.link.idle_ps"),
			Wall:        c("topdown.link.wall_ps"),
		},
		Rounds: snap.Counters["topdown.rounds"],
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, verdictCounterPrefix) {
			if s.Verdicts == nil {
				s.Verdicts = make(map[string]int64)
			}
			s.Verdicts[strings.TrimPrefix(name, verdictCounterPrefix)] = v
		}
	}
	s.Conserved = s.Buckets.Conserved() && s.Link.Conserved()
	return s
}

// WriteText renders the summary.
func (s Summary) WriteText(w io.Writer) {
	b := s.Buckets
	fmt.Fprintf(w, "topdown summary (%d rounds, all engines)\n", s.Rounds)
	fmt.Fprintf(w, "  engine cycles: busy %.2f%%  stall-in %.2f%%  stall-sw %.2f%%  stall-out %.2f%%  config %.2f%%  idle %.2f%%\n",
		Pct(b.Busy, b.Wall), Pct(b.StallInput, b.Wall), Pct(b.StallSwitch, b.Wall),
		Pct(b.StallOutput, b.Wall), Pct(b.Config, b.Wall), Pct(b.Idle, b.Wall))
	fmt.Fprintf(w, "  qpi link: busy %.2f%%  arbitration %.2f%%  idle %.2f%%\n",
		s.Link.BusyPct(), Pct(s.Link.Arbitration, s.Link.Wall), Pct(s.Link.Idle, s.Link.Wall))
	if len(s.Verdicts) > 0 {
		keys := make([]string, 0, len(s.Verdicts))
		for k := range s.Verdicts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  verdicts:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, s.Verdicts[k])
		}
		fmt.Fprintln(w)
	}
	if s.Conserved {
		fmt.Fprintln(w, "  cycle conservation: exact")
	} else {
		fmt.Fprintln(w, "  cycle conservation: VIOLATED")
	}
}
