// MemObserver adapts the recorder to the memory-model simulation: it
// satisfies memmodel.Observer structurally (both packages depend only on
// internal/sim, so no import is needed) and turns the simulation's
// per-grant callbacks into a bounded stream of timeline events. It renders
// the link's activity only; which job a grant served, and when each job
// started and finished, is memmodel's per-job ledger (Result.PerJob), which
// the HAL reads for the job-exec windows.
//
// A fully utilized QPI link issues one 16-line grant every ~790 ns — tens
// of thousands per job — so recording each grant would thrash the ring and
// dominate the cost of the always-on recorder. Instead the observer
// coalesces back-to-back grants (the service of one starting exactly where
// the previous ended, i.e. the link never idled between them) into one
// grant burst per contiguous busy window; bursts break only where the link
// actually idled, which is exactly what the memory-arbiter track should
// show.
package flightrec

import (
	"doppiodb/internal/sim"
)

// MemObserver collects the simulated timeline of one arbitration round. It is
// used single-threaded inside memmodel.Simulate; Flush must be called after
// the simulation to emit the trailing grant burst.
type MemObserver struct {
	rec  *Recorder
	base sim.Time // offset onto the recorder's continuous sim timeline

	burst struct {
		active       bool
		start, end   sim.Time
		lines, count int64
	}
}

// NewMemObserver creates an observer recording into rec with batch-local
// times offset by base.
func NewMemObserver(rec *Recorder, base sim.Time) *MemObserver {
	return &MemObserver{rec: rec, base: base}
}

// Grant records one arbiter grant's service window, merging it into the
// current burst when the link stayed busy.
func (o *MemObserver) Grant(engine int, lines int64, start, end sim.Time) {
	b := &o.burst
	if b.active && start == b.end {
		b.end = end
		b.lines += lines
		b.count++
		return
	}
	o.flushBurst()
	b.active = true
	b.start, b.end = start, end
	b.lines, b.count = lines, 1
}

// PhaseSwitch records an offset↔heap turn of engine's String Reader.
func (o *MemObserver) PhaseSwitch(engine int, at sim.Time) {
	o.rec.Record(Event{
		Type:   EvPhaseSwitch,
		Sim:    o.base + at,
		Engine: engine,
		Unit:   -1,
	})
}

// Flush emits the trailing grant burst. Call once after Simulate returns.
func (o *MemObserver) Flush() { o.flushBurst() }

// flushBurst records the pending burst as one EvGrantBurst.
func (o *MemObserver) flushBurst() {
	b := &o.burst
	if !b.active {
		return
	}
	dur := b.end - b.start
	o.rec.Record(Event{
		Type:   EvGrantBurst,
		Sim:    o.base + b.start,
		Dur:    dur,
		Domain: DomainFabric,
		Cycles: sim.FabricClock.CyclesFor(dur),
		Engine: -1,
		Unit:   -1,
		Arg:    b.lines,
	})
	b.active = false
}
