// Package memmodel simulates the memory system of the Xeon+FPGA prototype:
// the QPI link between the FPGA and the CPU-socket DRAM, the HAL's
// round-robin data arbiter (batches of 16 cache lines, §4.2.2), and the
// String Reader's two-phase access pattern (512 cache lines of offsets,
// then the corresponding heap lines, §5.1).
//
// The model reproduces the paper's measured behaviour:
//
//   - the QPI endpoint sustains ~6.5 GB/s of reads (§2.2);
//   - one Regex Engine consumes at most 6.4 GB/s (16 PUs × 400 MB/s), and
//     the offset↔heap phase switches leave latency a single engine cannot
//     hide, landing it at ~5.89 GB/s of raw bandwidth (§7.3);
//   - a second engine fills those gaps and saturates the link; further
//     engines add nothing (Figure 8's 30.7 → 34.4 → flat shape).
//
// The simulation is event-driven and fully deterministic.
//
// Simulate is also the one place a job's device accounting is produced:
// Result.PerJob holds, per job, its service window, the QPI traffic the
// arbiter granted it and its engine-cycle buckets (JobLedger). The layers
// above — hal.Completion, core.HWStats, EXPLAIN ANALYZE, the topdown
// verdict — carry and sum that record; none of them recounts the grant
// stream.
package memmodel

import (
	"doppiodb/internal/sim"
	"doppiodb/internal/topdown"
)

// Params are the platform constants. All bandwidths are bytes/second.
type Params struct {
	// QPIBandwidth is the effective FPGA-side read bandwidth over QPI.
	QPIBandwidth float64
	// CPUBandwidth is the CPU-side read bandwidth (for reference and the
	// software cost model; the paper measured 25 GB/s).
	CPUBandwidth float64
	// EngineBandwidth is one Regex Engine's consumption rate.
	EngineBandwidth float64
	// LineBytes is the cache-line transfer granularity (512 bits).
	LineBytes int
	// GrantLines is the arbiter batch size: "the batch size of 16 is
	// small enough to ensure good throughput without increasing memory
	// access latency too much".
	GrantLines int
	// OffsetBatchLines is the String Reader's offset-phase depth (the
	// depth of a BRAM FIFO): 512 cache lines.
	OffsetBatchLines int
	// SwitchLatency is the stall when the String Reader turns from the
	// offset column to the string heap (and back). It aggregates the
	// prototype's memory latency and QPI-endpoint inefficiencies and is
	// calibrated so a lone engine lands at the measured 5.89 GB/s.
	SwitchLatency sim.Time
	// Trace, when non-nil, receives timeline callbacks from Simulate
	// (grant service windows, phase switches). The flight recorder's
	// MemObserver satisfies it; nil costs nothing.
	Trace Observer
}

// Observer receives the simulated timeline as Simulate advances it — the
// flight recorder's grant bursts and phase-switch marks; accounting lives
// in Result. Times are batch-local (relative to the Simulate call's zero).
// Callbacks arrive single-threaded in simulation order.
type Observer interface {
	// Grant reports one arbiter grant of lines cache lines to engine,
	// serviced over [start, end).
	Grant(engine int, lines int64, start, end sim.Time)
	// PhaseSwitch reports an offset↔heap turn of engine's String Reader
	// charging the switch stall.
	PhaseSwitch(engine int, at sim.Time)
}

// Default returns the prototype's parameters.
func Default() Params {
	return Params{
		QPIBandwidth:     6.5e9,
		CPUBandwidth:     25e9,
		EngineBandwidth:  6.4e9,
		LineBytes:        64,
		GrantLines:       16,
		OffsetBatchLines: 512,
		SwitchLatency:    4200 * sim.Nanosecond,
	}
}

// Job is the data volume of one engine job (one partition of a query).
type Job struct {
	Strings     int // number of input strings
	OffsetBytes int // offset-column bytes to read
	HeapBytes   int // string-heap bytes to read
	ResultBytes int // result-column bytes to write
}

// TotalBytes returns the full QPI transfer volume of the job.
func (j Job) TotalBytes() int { return j.OffsetBytes + j.HeapBytes + j.ResultBytes }

// lines rounds a byte count up to whole cache lines.
func (p Params) lines(bytes int) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64((bytes + p.LineBytes - 1) / p.LineBytes)
}

func (p Params) lineTime(rate float64) sim.Time {
	return sim.FromSeconds(float64(p.LineBytes) / rate)
}

// phase is one contiguous access burst of an engine.
type phase struct {
	lines int64
}

// engineState walks an engine through its job queue. readyAt doubles as
// the engine's accounting cursor: every advance of it is classified into
// exactly one bucket of the engine's ledger, so the ledger telescopes to
// the wall.
type engineState struct {
	jobs      []Job
	jobIdx    int
	phases    []phase
	phIdx     int
	readyAt   sim.Time
	done      []sim.Time
	linesLeft int64 // remaining lines of the current job (incl. result lines)
	resLines  int64 // result write-back lines of the current job
}

// buildPhases expands a job into its offset/heap burst sequence. Each
// offset batch of 512 lines covers OffsetBatchLines*LineBytes/4 strings;
// the matching heap burst carries those strings' share of the heap. The
// result write-back rides on the final burst (results are written
// sequentially as cache lines fill, §5.1).
func (p Params) buildPhases(j Job) []phase {
	offLines := p.lines(j.OffsetBytes)
	heapLines := p.lines(j.HeapBytes)
	resLines := p.lines(j.ResultBytes)
	var out []phase
	batch := int64(p.OffsetBatchLines)
	for offLines > 0 {
		ob := min64(offLines, batch)
		offLines -= ob
		// Heap lines proportional to this offset batch.
		hb := heapLines
		if offLines > 0 {
			hb = heapLines * ob / (offLines + ob)
		}
		heapLines -= hb
		out = append(out, phase{lines: ob}, phase{lines: hb})
	}
	if len(out) == 0 {
		out = append(out, phase{lines: 0})
	}
	out[len(out)-1].lines += resLines
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// JobLedger is one job's device accounting, produced by Simulate and
// carried by every layer above (hal.Completion and core.HWStats embed it). Boundary activity — the inter-job switch — is charged to the
// job entering the engine: it pays the entry turn.
type JobLedger struct {
	// Start is when the arbiter first served the job, Done when its last
	// line was granted; both on the caller's timeline (batch-local out of
	// Simulate, the continuous device timeline once the HAL rebased them).
	Start, Done sim.Time
	// Bytes (line-rounded), Grants and Switches are the QPI traffic the
	// arbiter moved for this job; LinkBusy is the link service time of its
	// grants.
	Bytes    int64
	Grants   int64
	Switches int64
	LinkBusy sim.Time
	// Buckets classifies the job's engine cycles. Jobs own no idle — not
	// the post-completion tail — so Wall is the sum of the other buckets,
	// and over an engine's jobs each bucket sums exactly to the engine
	// ledger's.
	Buckets topdown.Buckets
}

// Add folds o into l: traffic and cycles sum, and the [Start, Done] window
// widens to cover o's (the zero ledger takes o's window).
func (l *JobLedger) Add(o JobLedger) {
	if *l == (JobLedger{}) || o.Start < l.Start {
		l.Start = o.Start
	}
	if o.Done > l.Done {
		l.Done = o.Done
	}
	l.Bytes += o.Bytes
	l.Grants += o.Grants
	l.Switches += o.Switches
	l.LinkBusy += o.LinkBusy
	l.Buckets.Add(o.Buckets)
}

// Result of a simulation.
type Result struct {
	// Done[e][k] is the completion time of engine e's k-th job.
	Done [][]sim.Time
	// Finish is the time the last job completed.
	Finish sim.Time
	// BytesMoved is the total QPI traffic.
	BytesMoved int64
	// BusyTime is the time the QPI link spent transferring.
	BusyTime sim.Time
	// Grants counts arbiter grants issued (telemetry: batch efficiency is
	// lines moved vs. Grants×GrantLines).
	Grants int64
	// Switches counts offset↔heap phase turns that charged SwitchLatency
	// — the stall events a lone engine cannot hide (§7.3).
	Switches int64
	// Engines[e] is engine e's cycle-conservation ledger over the span:
	// every picosecond in exactly one bucket, telescoped out of the
	// engine's ready-time cursor, so Busy + StallInput + StallSwitch +
	// StallOutput + Idle == Wall holds exactly (no epsilon). Wall is the
	// later of the link's finish and the slowest engine's drain; Config is
	// not the memory system's to charge and stays zero.
	Engines []topdown.Buckets
	// PerJob[e][k] is the ledger of engine e's k-th job; its Done equals
	// Done[e][k].
	PerJob [][]JobLedger
	// Link is the QPI link's parallel ledger: transferring (Busy), waiting
	// for any engine to turn around while work is pending (Arbitration),
	// or past the last service (Idle); they sum to Wall exactly.
	Link topdown.LinkBuckets
}

// Utilization returns the QPI link utilization over the simulated span.
func (r Result) Utilization() float64 {
	if r.Finish == 0 {
		return 0
	}
	return r.BusyTime.Seconds() / r.Finish.Seconds()
}

// Simulate runs the given per-engine job queues to completion and returns
// per-job completion times. Engines contend for the QPI link through the
// arbiter; each engine consumes at EngineBandwidth and stalls for
// SwitchLatency between access phases.
func Simulate(p Params, queues [][]Job) Result {
	engines := make([]*engineState, len(queues))
	for i, q := range queues {
		es := &engineState{jobs: q}
		es.loadJob(p)
		engines[i] = es
	}
	qpiLine := p.lineTime(p.QPIBandwidth)
	engLine := p.lineTime(p.EngineBandwidth)

	var now, busy, arb sim.Time
	var moved int64
	res := Result{
		Done:    make([][]sim.Time, len(queues)),
		Engines: make([]topdown.Buckets, len(queues)),
		PerJob:  make([][]JobLedger, len(queues)),
	}
	for i, q := range queues {
		res.PerJob[i] = make([]JobLedger, len(q))
	}
	rr := 0 // round-robin arbiter pointer
	for {
		// Find the next engine (round-robin from rr) that has pending
		// lines and is ready.
		var pick *engineState
		pickIdx := -1
		var soonest sim.Time = -1
		anyPending := false
		for k := 0; k < len(engines); k++ {
			i := (rr + k) % len(engines)
			es := engines[i]
			if es.jobIdx >= len(es.jobs) {
				continue
			}
			anyPending = true
			if es.readyAt <= now {
				if pick == nil {
					pick, pickIdx = es, i
				}
			}
			if soonest < 0 || es.readyAt < soonest {
				soonest = es.readyAt
			}
		}
		if !anyPending {
			break
		}
		if pick == nil {
			// Work is pending but every engine is mid-drain or mid-turn:
			// the link waits on arbitration, not true idleness.
			arb += soonest - now
			now = soonest
			continue
		}
		// Grant up to GrantLines from the engine's current phase. A job's
		// first pick always grants (only a job without any line is picked
		// with nothing to grant, and it is picked once), so "no grant yet"
		// marks the start of its service window.
		jb := &res.PerJob[pickIdx][pick.jobIdx]
		if jb.Grants == 0 {
			jb.Start = now
		}
		ph := &pick.phases[pick.phIdx]
		g := min64(ph.lines, int64(p.GrantLines))
		if g > 0 {
			service := qpiLine * sim.Time(g)
			consume := engLine * sim.Time(g)
			if p.Trace != nil {
				p.Trace.Grant(pickIdx, g, now, now+service)
			}
			led := &res.Engines[pickIdx]
			// Time the engine sat ready before this grant was its turn.
			if gap := now - pick.readyAt; gap > 0 {
				led.StallInput += gap
				jb.Buckets.StallInput += gap
			}
			// The job's trailing result lines are write-back drain
			// (stall-output), everything before them is PU compute.
			pick.linesLeft -= g
			var outLines int64
			if pick.linesLeft < pick.resLines {
				outLines = min64(g, pick.resLines-pick.linesLeft)
			}
			busyT := engLine * sim.Time(g-outLines)
			outT := engLine * sim.Time(outLines)
			led.Busy += busyT
			led.StallOutput += outT
			jb.Buckets.Busy += busyT
			jb.Buckets.StallOutput += outT
			jb.Bytes += g * int64(p.LineBytes)
			jb.Grants++
			jb.LinkBusy += service
			now += service
			busy += service
			moved += g * int64(p.LineBytes)
			res.Grants++
			ph.lines -= g
			// The engine is busy consuming; it cannot take the
			// next grant before it drains this one.
			pick.readyAt = now + (consume - service)
		}
		if ph.lines == 0 {
			pick.advancePhase(p, pickIdx, now, &res)
		}
		rr = (pickIdx + 1) % len(engines)
	}
	res.Finish = now
	res.BytesMoved = moved
	res.BusyTime = busy
	// The wall every ledger sums to: the last engine may still be
	// draining its final grant past the link's last service.
	wall := now
	for _, es := range engines {
		if es.readyAt > wall {
			wall = es.readyAt
		}
	}
	for i, es := range engines {
		res.Done[i] = es.done
		led := &res.Engines[i]
		led.Idle = wall - es.readyAt
		led.Wall = wall
	}
	res.Link = topdown.LinkBuckets{Busy: busy, Arbitration: arb, Idle: wall - now, Wall: wall}
	return res
}

func (es *engineState) loadJob(p Params) {
	if es.jobIdx < len(es.jobs) {
		es.phases = p.buildPhases(es.jobs[es.jobIdx])
		es.phIdx = 0
		es.linesLeft = 0
		for _, ph := range es.phases {
			es.linesLeft += ph.lines
		}
		es.resLines = p.lines(es.jobs[es.jobIdx].ResultBytes)
	}
}

// advancePhase moves engine e to its next burst, charging the switch
// stall; at the end of the job it records completion and loads the next.
func (es *engineState) advancePhase(p Params, e int, now sim.Time, res *Result) {
	es.phIdx++
	if es.phIdx < len(es.phases) {
		es.chargeSwitch(p, e, now, res)
		if p.Trace != nil {
			p.Trace.PhaseSwitch(e, now)
		}
		return
	}
	// Every charge of the finished job has landed (its last grant's drain
	// was classified when granted), so its wall closes here.
	jb := &res.PerJob[e][es.jobIdx]
	jb.Done = now
	jb.Buckets.Wall = jb.Buckets.Sum()
	es.done = append(es.done, now)
	es.jobIdx++
	es.loadJob(p)
	if es.jobIdx < len(es.jobs) {
		es.chargeSwitch(p, e, now, res)
		if p.Trace != nil {
			p.Trace.PhaseSwitch(e, now)
		}
	}
}

// chargeSwitch advances the engine cursor across one SwitchLatency stall,
// classifying any ready-but-unserved gap before it as stall-input. The
// charge lands on the engine's current job — for the inter-job turn that
// is the entering job (callers only turn into a job that exists).
func (es *engineState) chargeSwitch(p Params, e int, now sim.Time, res *Result) {
	led := &res.Engines[e]
	jb := &res.PerJob[e][es.jobIdx]
	if gap := now - es.readyAt; gap > 0 {
		led.StallInput += gap
		jb.Buckets.StallInput += gap
		es.readyAt = now
	}
	led.StallSwitch += p.SwitchLatency
	jb.Buckets.StallSwitch += p.SwitchLatency
	jb.Switches++
	es.readyAt += p.SwitchLatency
	res.Switches++
}

// JobForStrings builds a Job for n strings of the given payload length
// using the BAT heap layout (4 B offsets, 72 B heap entries for 64 B
// strings, 2 B results).
func JobForStrings(n, strLen, offsetWidth, entryStride, resultWidth int) Job {
	return Job{
		Strings:     n,
		OffsetBytes: n * offsetWidth,
		HeapBytes:   n * entryStride,
		ResultBytes: n * resultWidth,
	}
}
