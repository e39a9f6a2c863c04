// The asynchronous device runtime: a single event-loop goroutine owns the
// memory model and the simulated device clock, advances QPI arbitration
// round by round, and completes jobs individually. DispatchContext hands a
// group of jobs (one query's partitions) to the scheduler as a unit; an
// admission layer bounds the jobs in flight per engine and keeps the rest
// in a FIFO backlog, so a burst of concurrent queries turns into queue
// delay — observable through QueuedBytes and fed to core.EstimateCost —
// instead of an unboundedly wide arbitration round.
//
// One round is one memmodel.Simulate call over the admitted jobs, started
// at the current epoch of the continuous simulated timeline. A lone
// query's round therefore contains exactly its own jobs, which keeps
// single-client timings bit-identical to the historical synchronous
// Drain. Per-job attribution (service window, bytes, grants, switches,
// link-busy time, engine-cycle buckets) is memmodel's per-job ledger: the
// runtime carries Result.PerJob into each Completion — rebased onto the
// continuous timeline, plus the parametrization it charges itself — and
// recounts nothing, so concurrent queries sharing a round each see only
// their own traffic.
package hal

import (
	"context"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/sim"
	"doppiodb/internal/topdown"
)

// DefaultAdmissionCap bounds the jobs one engine carries in a single
// arbitration round. A group whose jobs would push any engine past the cap
// waits in the FIFO backlog (the first group of a round is always admitted,
// so a group wider than the cap still runs).
const DefaultAdmissionCap = 4

// roundGap separates successive arbitration rounds on the recorder's
// continuous simulated timeline so their tracks never overlap.
const roundGap = 1 * sim.Microsecond

// Completion is the per-job completion record the runtime delivers through
// Job.Await: the memory model's ledger of the job, carried as produced,
// plus what only the runtime knows. All times are on the continuous
// simulated timeline; the traffic fields count only this job's share of
// the round, so a query summing its own jobs never sees a concurrent
// query's bytes.
type Completion struct {
	// JobLedger is the job's share of its round. The runtime rebases Start
	// and Done onto the continuous timeline — Done also gains the
	// parametrization and any accrued watchdog penalty — and adds the one
	// bucket the memory system does not charge: Config = ParametrizeTime
	// (Wall grows with it). The per-query analyzer folds the buckets into
	// the bottleneck verdict.
	memmodel.JobLedger
	// Enqueued is when DispatchContext placed the job's group in the backlog.
	Enqueued sim.Time
	// Admitted is the start of the arbitration round that ran the job.
	Admitted sim.Time
}

// QueueWait is the time the job's group spent in the backlog.
func (c Completion) QueueWait() sim.Time { return c.Admitted - c.Enqueued }

// HWTime is the hardware processing time: admission to completion.
func (c Completion) HWTime() sim.Time { return c.Done - c.Admitted }

// jobGroup is one DispatchContext call's unit of admission: a query's partitions
// enter a round together or not at all, so a group's jobs always share an
// Admitted time and their relative completions stay comparable.
type jobGroup struct {
	jobs     []*Job
	enqueued sim.Time
	bytes    int64    // total data volume (admission byte cap accounting)
	deadline sim.Time // simulated abort point (0: none), from WithBudget
	admitted bool
	canceled bool
}

// publishBacklogLocked exports the backlog's current depth — waiting groups,
// their job count, and queued bytes — as gauges, tracks the high-water marks
// the overload experiments assert against the caps, and wakes dispatchers
// parked on the block policy. Caller holds h.mu.
func (h *HAL) publishBacklogLocked() {
	njobs := 0
	var bytes int64
	for _, g := range h.backlog {
		njobs += len(g.jobs)
		bytes += g.bytes
	}
	h.tel.Gauge("hal.backlog_groups").Set(int64(len(h.backlog)))
	h.tel.Gauge("hal.backlog_jobs").Set(int64(njobs))
	h.tel.Gauge("hal.backlog_bytes").Set(bytes)
	if n := int64(len(h.backlog)); n > h.peakGroups {
		h.peakGroups = n
		h.tel.Gauge("hal.backlog_peak_groups").Set(n)
	}
	if n := int64(njobs); n > h.peakJobs {
		h.peakJobs = n
		h.tel.Gauge("hal.backlog_peak_jobs").Set(n)
	}
	if bytes > h.peakBytes {
		h.peakBytes = bytes
		h.tel.Gauge("hal.backlog_peak_bytes").Set(bytes)
	}
	h.cond.Broadcast()
}

// Await blocks until the runtime completes the job and returns its
// completion record. If ctx is canceled while the job's group is still in
// the backlog (or the job was never dispatched), the whole group is aborted
// — its status blocks are freed and every sibling's Await reports
// ErrCanceled — and Await returns the context's error. A group already
// admitted to a round runs to completion (grants cannot be revoked
// mid-round); its record is then returned normally. A job aborted by the
// runtime reports the typed cause: ErrClosed after Close, ErrDeadlineExceeded
// for an overdue group, ErrCanceled otherwise.
func (j *Job) Await(ctx context.Context) (Completion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		if j.hal.abandonJob(j) {
			return Completion{}, ctx.Err()
		}
		<-j.done
	}
	if j.canceled {
		if j.failErr != nil {
			return Completion{}, j.failErr
		}
		return Completion{}, ErrCanceled
	}
	return j.comp, nil
}

// abandonJob aborts a job whose awaiter gave up: a group still waiting in
// the backlog is canceled whole — jobs marked canceled, status blocks
// freed, every sibling's awaiter released — and a submitted-but-never-
// dispatched job is released like a Discard (the historical path hung
// forever here waiting on a done channel nothing would close). Returns
// false when the job was already admitted, finished, or canceled: the
// runtime owns its done channel and the caller keeps waiting.
func (h *HAL) abandonJob(j *Job) bool {
	h.mu.Lock()
	if j.finished || j.canceled {
		h.mu.Unlock()
		return false
	}
	g := j.group
	if g == nil {
		h.releaseJobsLocked([]*Job{j}, ErrCanceled)
		h.mu.Unlock()
		close(j.done)
		return true
	}
	if g.admitted || g.canceled {
		h.mu.Unlock()
		return false
	}
	g.canceled = true
	for i, b := range h.backlog {
		if b == g {
			h.backlog = append(h.backlog[:i], h.backlog[i+1:]...)
			break
		}
	}
	h.releaseJobsLocked(g.jobs, ErrCanceled)
	h.publishBacklogLocked()
	h.mu.Unlock()
	for _, sib := range g.jobs {
		close(sib.done)
	}
	return true
}

// releaseJobsLocked undoes the submit-time reservations of jobs that will
// never run a round: status blocks return to the pool, the per-engine
// volume accounting and the descriptor-queue occupancy shrink. Each job's
// Await will report cause (an errors.Is-able sentinel: ErrCanceled,
// ErrClosed, or ErrDeadlineExceeded). Caller holds h.mu.
func (h *HAL) releaseJobsLocked(jobs []*Job, cause error) {
	for _, j := range jobs {
		j.canceled = true
		j.failErr = cause
		h.freeBlockLocked(j.statusAddr, j.poolOff)
		h.queueLen--
		h.queuedVol[j.Engine] -= int64(j.Timing.TotalBytes())
		h.rec.Record(flightrec.Event{
			Type:   flightrec.EvJobCancel,
			Sim:    h.simEpoch,
			Engine: j.Engine,
			Unit:   -1,
			Job:    j.seq,
		})
	}
	h.tel.Gauge("hal.queue_depth").Set(int64(h.queueLen))
}

// Discard releases submitted jobs that were never dispatched (a query that
// failed between partition submits). Dispatched jobs are ignored — cancel
// those through Await's context.
func (h *HAL) Discard(jobs ...*Job) {
	h.mu.Lock()
	var victims []*Job
	for _, j := range jobs {
		if j == nil || j.group != nil || j.finished || j.canceled {
			continue
		}
		victims = append(victims, j)
	}
	h.releaseJobsLocked(victims, ErrCanceled)
	h.mu.Unlock()
	for _, j := range victims {
		close(j.done)
	}
}

// Pause suspends admission: dispatched groups accumulate in the backlog
// until Resume. A round already running completes normally. Tests use the
// pair to observe queue buildup deterministically.
func (h *HAL) Pause() {
	h.mu.Lock()
	h.paused = true
	h.mu.Unlock()
}

// Resume reopens admission and wakes the event loop.
func (h *HAL) Resume() {
	h.mu.Lock()
	h.paused = false
	h.cond.Broadcast()
	h.mu.Unlock()
}

// Close shuts the runtime down: every group still in the backlog is
// canceled (awaiters unblock with ErrClosed) and the event loop exits
// after any in-flight round. Further DispatchContext and SubmitToContext
// calls fail with
// ErrClosed. Close is idempotent.
func (h *HAL) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	groups := h.backlog
	h.backlog = nil
	var victims []*Job
	for _, g := range groups {
		g.canceled = true
		victims = append(victims, g.jobs...)
	}
	h.releaseJobsLocked(victims, ErrClosed)
	h.publishBacklogLocked()
	h.cond.Broadcast()
	h.mu.Unlock()
	for _, j := range victims {
		close(j.done)
	}
}

// loop is the device runtime's event loop: wait for backlogged work, abort
// overdue groups, admit a round, simulate it, deliver completions, repeat.
// Exactly one loop goroutine runs per HAL; it alone advances simEpoch.
func (h *HAL) loop() {
	for {
		h.mu.Lock()
		for !h.closed && (h.paused || len(h.backlog) == 0) {
			h.cond.Wait()
		}
		if h.closed {
			h.mu.Unlock()
			return
		}
		expired := h.expireLocked()
		queues, jobs, admitted := h.admitLocked()
		epoch := h.simEpoch
		params := h.params
		h.mu.Unlock()
		for _, j := range expired {
			close(j.done)
		}
		if admitted > 0 {
			h.runRound(epoch, params, queues, jobs)
		}
	}
}

// admitLocked moves backlogged groups into the next round, FIFO, until the
// per-engine admission cap would be exceeded. The head group is always
// admitted. Caller holds h.mu.
func (h *HAL) admitLocked() (queues [][]memmodel.Job, jobs [][]*Job, admitted int) {
	queues = make([][]memmodel.Job, len(h.engines))
	jobs = make([][]*Job, len(h.engines))
	load := make([]int, len(h.engines))
	for len(h.backlog) > 0 {
		g := h.backlog[0]
		if g.canceled {
			h.backlog = h.backlog[1:]
			continue
		}
		if admitted > 0 && !h.fitsRound(load, g) {
			break
		}
		for _, j := range g.jobs {
			load[j.Engine]++
			queues[j.Engine] = append(queues[j.Engine], j.Timing)
			jobs[j.Engine] = append(jobs[j.Engine], j)
			h.rec.Record(flightrec.Event{
				Type:   flightrec.EvJobAdmit,
				Sim:    h.simEpoch,
				Engine: j.Engine,
				Unit:   -1,
				Job:    j.seq,
				Arg:    int64((h.simEpoch - g.enqueued) / sim.Nanosecond),
			})
		}
		g.admitted = true
		admitted += len(g.jobs)
		h.backlog = h.backlog[1:]
	}
	h.publishBacklogLocked()
	return queues, jobs, admitted
}

// fitsRound reports whether admitting group g keeps every engine at or
// under the admission cap given the load already admitted.
func (h *HAL) fitsRound(load []int, g *jobGroup) bool {
	extra := make([]int, len(load))
	for _, j := range g.jobs {
		extra[j.Engine]++
		if load[j.Engine]+extra[j.Engine] > h.admitCap {
			return false
		}
	}
	return true
}

// runRound executes one arbitration round: the deterministic QPI/engine
// simulation over the admitted queues, completion stamping from its
// per-job ledgers, status scrubbing, flight-recorder timelines, round
// telemetry, and the epoch advance. It mirrors the historical Drain exactly for a
// round holding a single query's jobs.
func (h *HAL) runRound(epoch sim.Time, params memmodel.Params, queues [][]memmodel.Job, jobs [][]*Job) {
	if f := h.inj.QPIFactor(); f > 0 {
		// Degraded link: the round completes, just slower.
		params.QPIBandwidth *= f
		h.tel.Counter("hal.faults.qpi_degraded").Inc()
	}
	// The flight recorder observes the simulation (grant bursts, phase
	// switches). Trace is an interface: it stays untyped-nil on a detached
	// HAL, so Simulate pays nothing per grant.
	var mobs *flightrec.MemObserver
	if h.rec != nil {
		mobs = flightrec.NewMemObserver(h.rec, epoch)
		params.Trace = mobs
	}
	res := memmodel.Simulate(params, queues)
	if mobs != nil {
		mobs.Flush()
	}

	var completed []*Job
	h.mu.Lock()
	for e := range jobs {
		for k, j := range jobs[e] {
			pj := res.PerJob[e][k]
			j.comp = Completion{JobLedger: pj, Enqueued: j.group.enqueued, Admitted: epoch}
			j.comp.Start += epoch
			j.comp.Done += epoch + ParametrizeTime + j.penalty
			j.comp.Buckets.Config = ParametrizeTime
			j.comp.Buckets.Wall += ParametrizeTime
			j.finished = true
			h.queueWait.Observe(int64(j.comp.QueueWait() / sim.Nanosecond))
			h.scrubStatusLocked(j)
			if h.rec != nil {
				h.recordJobTimelineLocked(e, j, pj.Start, pj.Done)
			}
			h.queueLen--
			h.queuedVol[e] -= int64(j.Timing.TotalBytes())
			completed = append(completed, j)
		}
	}
	// Fold the round's cycle ledgers into the fabric's cumulative topdown
	// accounting. The per-job parametrization load is the engine's config
	// bucket; it extends the engine's wall beyond the shared simulation
	// span, so conservation stays exact per engine by construction.
	var roundTotal topdown.Buckets
	for e, b := range res.Engines {
		b.Config = sim.Time(len(jobs[e])) * ParametrizeTime
		b.Wall += b.Config
		h.tdEngines[e].Add(b)
		roundTotal.Add(b)
		if h.rec != nil && b.Wall > 0 {
			h.rec.Record(flightrec.Event{
				Type: flightrec.EvUtilSample, Sim: epoch, Dur: b.Wall,
				Engine: e, Unit: -1,
				Vals: []int64{
					int64(b.Busy * 10000 / b.Wall),
					int64(b.StallInput * 10000 / b.Wall),
					int64(b.StallSwitch * 10000 / b.Wall),
					int64(b.StallOutput * 10000 / b.Wall),
					int64(b.Config * 10000 / b.Wall),
					int64(b.Idle * 10000 / b.Wall),
				},
			})
		}
	}
	link := res.Link
	h.tdLink.Add(link)
	h.tdRounds++
	if h.rec != nil && link.Wall > 0 {
		h.rec.Record(flightrec.Event{
			Type: flightrec.EvUtilSample, Sim: epoch, Dur: link.Wall,
			Engine: -1, Unit: -1,
			Vals: []int64{
				int64(link.Busy * 10000 / link.Wall),
				int64(link.Arbitration * 10000 / link.Wall),
				int64(link.Idle * 10000 / link.Wall),
			},
		})
	}

	if res.Finish > 0 {
		// Advance the continuous timeline so the next round renders after
		// this one (the gap marks the round boundary in the trace).
		h.simEpoch += res.Finish + ParametrizeTime + roundGap
	}

	// QPI / arbiter telemetry from the timing simulation.
	h.tel.Counter("qpi.bytes").Add(res.BytesMoved)
	h.tel.Counter("qpi.busy_ns").Add(int64(res.BusyTime / sim.Nanosecond))
	h.tel.Counter("qpi.grants").Add(res.Grants)
	h.tel.Counter("qpi.switch_events").Add(res.Switches)
	// Basis points, not truncated integer percent: a lone engine's ~90.6%
	// link utilization must survive as 9063, and a near-idle round must
	// not read as zero. Exporters render the derived percent view.
	h.tel.Gauge("qpi.utilization_bp").Set(int64(res.Utilization() * 10000))
	// Topdown counters, picosecond resolution so the cross-round
	// conservation check stays exact after the counter round-trip.
	h.tel.Counter("topdown.busy_ps").Add(int64(roundTotal.Busy))
	h.tel.Counter("topdown.stall_input_ps").Add(int64(roundTotal.StallInput))
	h.tel.Counter("topdown.stall_switch_ps").Add(int64(roundTotal.StallSwitch))
	h.tel.Counter("topdown.stall_output_ps").Add(int64(roundTotal.StallOutput))
	h.tel.Counter("topdown.config_ps").Add(int64(roundTotal.Config))
	h.tel.Counter("topdown.idle_ps").Add(int64(roundTotal.Idle))
	h.tel.Counter("topdown.wall_ps").Add(int64(roundTotal.Wall))
	h.tel.Counter("topdown.link.busy_ps").Add(int64(link.Busy))
	h.tel.Counter("topdown.link.arbitration_ps").Add(int64(link.Arbitration))
	h.tel.Counter("topdown.link.idle_ps").Add(int64(link.Idle))
	h.tel.Counter("topdown.link.wall_ps").Add(int64(link.Wall))
	h.tel.Counter("topdown.rounds").Inc()
	if link.Wall > 0 {
		h.tel.Gauge("topdown.link.utilization_bp").Set(int64(link.Busy * 10000 / link.Wall))
	}
	if res.Grants > 0 && h.params.LineBytes > 0 {
		// Batch efficiency: lines actually moved per grant vs. the
		// arbiter's full batch of GrantLines.
		lines := res.BytesMoved / int64(h.params.LineBytes)
		h.tel.Gauge("qpi.batch_efficiency_pct").Set(
			100 * lines / (res.Grants * int64(h.params.GrantLines)))
	}
	h.tel.Gauge("hal.queue_depth").Set(int64(h.queueLen))
	h.mu.Unlock()
	for _, j := range completed {
		close(j.done)
	}
}
