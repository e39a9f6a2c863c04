// Bounded admission and deadline propagation: the overload-protection half
// of the device runtime. The FIFO backlog behind DispatchContext is capped
// in three dimensions — waiting groups, waiting jobs, and queued bytes — and
// a dispatch that would breach a cap is either shed immediately (fail fast
// with ErrOverload) or blocked until the backlog drains or the caller's
// context expires, per the configured policy.
//
// Deadlines ride the context as a *simulated-time* budget (WithBudget): the
// runtime refuses to admit a group whose cost-model ETA — the same queued-
// volume / QPI-bandwidth terms core.EstimateCost prices queue delay with —
// already exceeds the budget, and the event loop aborts overdue groups at
// every round boundary. Wall-clock deadlines cannot map deterministically
// onto the simulated timeline, so the budget is the explicit bridge; the
// caller's wall context still bounds how long a blocked dispatch waits.
package hal

import (
	"context"
	"errors"
	"fmt"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/sim"
)

// Admission errors.
var (
	// ErrOverload is a dispatch rejected (or abandoned while blocked)
	// because the backlog is at a configured cap. It is not a hardware
	// fault: the query should be shed, not degraded.
	ErrOverload = errors.New("hal: backlog over admission cap, dispatch shed")
	// ErrDeadlineExceeded is a group refused at admission (its cost-model
	// ETA exceeds the simulated budget) or aborted overdue at a round
	// boundary. It matches context.DeadlineExceeded so callers can treat
	// both deadline flavors uniformly.
	ErrDeadlineExceeded = fmt.Errorf("hal: simulated deadline exceeded: %w", context.DeadlineExceeded)
)

// AdmissionPolicy says what a dispatch does when the backlog is at a cap.
type AdmissionPolicy int

const (
	// PolicyShed fails the dispatch immediately with ErrOverload.
	PolicyShed AdmissionPolicy = iota
	// PolicyBlock parks the dispatcher until the backlog drains below the
	// caps or the caller's context expires — backpressure instead of loss.
	PolicyBlock
)

// String names the policy for telemetry and rendering.
func (p AdmissionPolicy) String() string {
	if p == PolicyBlock {
		return "block"
	}
	return "shed"
}

// AdmissionLimits bounds the device runtime's backlog. A zero or negative
// cap leaves that dimension unbounded; the zero value admits everything
// (the pre-overload-protection behavior).
type AdmissionLimits struct {
	// MaxGroups caps the dispatch groups waiting in the backlog.
	MaxGroups int
	// MaxJobs caps the total jobs waiting across all backlogged groups.
	MaxJobs int
	// MaxBytes caps the data volume waiting in the backlog.
	MaxBytes int64
	// Policy picks shed (default) or block behavior at the cap.
	Policy AdmissionPolicy
}

// bounded reports whether any cap is configured.
func (l AdmissionLimits) bounded() bool {
	return l.MaxGroups > 0 || l.MaxJobs > 0 || l.MaxBytes > 0
}

// SetAdmission installs backlog caps and wakes any parked dispatcher so it
// re-evaluates against the new limits. The caps are exported as gauges
// (hal.admission.cap_*) so monitors can compare them against the live
// backlog depth.
func (h *HAL) SetAdmission(l AdmissionLimits) {
	h.mu.Lock()
	h.admission = l
	h.tel.Gauge("hal.admission.cap_groups").Set(int64(l.MaxGroups))
	h.tel.Gauge("hal.admission.cap_jobs").Set(int64(l.MaxJobs))
	h.tel.Gauge("hal.admission.cap_bytes").Set(l.MaxBytes)
	h.cond.Broadcast()
	h.mu.Unlock()
}

// budgetKey carries a simulated completion budget through a context.
type budgetKey struct{}

// WithBudget attaches a simulated-time completion budget to ctx. Dispatches
// under the returned context are refused with ErrDeadlineExceeded when the
// cost-model ETA exceeds d, and their groups are aborted if still queued
// once the simulated clock passes enqueue+d. A non-positive d is ignored.
func WithBudget(ctx context.Context, d sim.Time) context.Context {
	if d <= 0 {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, d)
}

// BudgetFrom returns the simulated budget attached by WithBudget (0: none).
func BudgetFrom(ctx context.Context) sim.Time {
	if ctx == nil {
		return 0
	}
	d, _ := ctx.Value(budgetKey{}).(sim.Time)
	return d
}

// roomLocked reports whether a group of njobs/bytes fits the backlog under
// the configured caps. Caller holds h.mu.
func (h *HAL) roomLocked(njobs int, bytes int64) bool {
	l := h.admission
	if l.MaxGroups > 0 && len(h.backlog)+1 > l.MaxGroups {
		return false
	}
	if l.MaxJobs > 0 {
		waiting := 0
		for _, g := range h.backlog {
			waiting += len(g.jobs)
		}
		if waiting+njobs > l.MaxJobs {
			return false
		}
	}
	if l.MaxBytes > 0 {
		var waiting int64
		for _, g := range h.backlog {
			waiting += g.bytes
		}
		if waiting+bytes > l.MaxBytes {
			return false
		}
	}
	return true
}

// etaLocked is the cost-model completion estimate the deadline check prices
// a new group against: every queued byte (the dispatched group's jobs were
// already counted into queuedVol at submit) drains at the QPI link rate,
// plus the engine parametrization — the same terms core.EstimateCost builds
// QueueDelay and EngineBusy from. Caller holds h.mu.
func (h *HAL) etaLocked() sim.Time {
	var queued int64
	for _, v := range h.queuedVol {
		queued += v
	}
	return sim.FromSeconds(float64(queued)/h.params.QPIBandwidth) + ParametrizeTime
}

// DispatchContext hands a group of submitted jobs to the device runtime as
// one admission unit and returns once the group is in the backlog; each
// job's Await delivers its completion record. The runtime's event loop
// starts lazily on the first dispatch. The context's simulated budget
// (WithBudget) is enforced at admission and at round boundaries, and the
// configured AdmissionLimits are applied — shedding with ErrOverload or
// blocking with backpressure until room frees up or ctx expires.
func (h *HAL) DispatchContext(ctx context.Context, jobs ...*Job) error {
	if len(jobs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	budget := BudgetFrom(ctx)
	var bytes int64
	for _, j := range jobs {
		if j == nil {
			return ErrBadDispatch
		}
		bytes += int64(j.Timing.TotalBytes())
	}
	// An AfterFunc pokes the cond when the caller's context dies while the
	// dispatcher is parked; it takes h.mu so the broadcast cannot slip into
	// the window between the waiter's ctx check and its cond.Wait.
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
	}()

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	for _, j := range jobs {
		if j.group != nil || j.finished || j.canceled {
			h.mu.Unlock()
			return ErrBadDispatch
		}
	}
	if budget > 0 {
		if eta := h.etaLocked(); eta > budget {
			h.tel.Counter("hal.admission.deadline_refused").Inc()
			h.rec.Record(flightrec.Event{
				Type: flightrec.EvDeadline, Sim: h.simEpoch,
				Engine: -1, Unit: -1,
				Arg:  int64(eta / sim.Nanosecond),
				Note: "refused: ETA over budget",
			})
			h.mu.Unlock()
			return fmt.Errorf("hal: cost-model ETA %v exceeds budget %v: %w",
				eta, budget, ErrDeadlineExceeded)
		}
	}
	blocked := false
	for !h.closed && h.admission.bounded() && !h.roomLocked(len(jobs), bytes) {
		if h.admission.Policy == PolicyShed {
			h.tel.Counter("hal.admission.shed").Inc()
			h.rec.Record(flightrec.Event{
				Type: flightrec.EvShed, Sim: h.simEpoch,
				Engine: -1, Unit: -1,
				Arg:  int64(len(jobs)),
				Note: "backlog at cap",
			})
			limits := h.admission // SetAdmission may rewrite it once unlocked
			h.mu.Unlock()
			return fmt.Errorf("hal: %d-job group vs caps %+v: %w",
				len(jobs), limits, ErrOverload)
		}
		if err := ctx.Err(); err != nil {
			h.tel.Counter("hal.admission.shed").Inc()
			h.rec.Record(flightrec.Event{
				Type: flightrec.EvShed, Sim: h.simEpoch,
				Engine: -1, Unit: -1,
				Arg:  int64(len(jobs)),
				Note: "blocked dispatch abandoned: " + err.Error(),
			})
			h.mu.Unlock()
			return fmt.Errorf("hal: blocked dispatch abandoned: %w: %w", ErrOverload, err)
		}
		if !blocked {
			blocked = true
			h.tel.Counter("hal.admission.blocked").Inc()
			stopWatch = context.AfterFunc(ctx, func() {
				h.mu.Lock()
				h.cond.Broadcast()
				h.mu.Unlock()
			})
		}
		h.blockedWaiters++
		h.tel.Gauge("hal.admission.blocked_waiters").Set(int64(h.blockedWaiters))
		h.cond.Wait()
		h.blockedWaiters--
		h.tel.Gauge("hal.admission.blocked_waiters").Set(int64(h.blockedWaiters))
	}
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	h.enqueueLocked(jobs, bytes, budget)
	h.mu.Unlock()
	return nil
}

// enqueueLocked appends a validated group to the backlog, stamping its
// deadline from the budget, and wakes the event loop. Caller holds h.mu.
func (h *HAL) enqueueLocked(jobs []*Job, bytes int64, budget sim.Time) {
	if !h.loopOn {
		h.loopOn = true
		go h.loop()
	}
	g := &jobGroup{jobs: jobs, enqueued: h.simEpoch, bytes: bytes}
	if budget > 0 {
		g.deadline = h.simEpoch + budget
	}
	h.dispatchedGroups++
	h.tel.Counter("hal.dispatch.groups").Inc()
	for _, j := range jobs {
		j.group = g
		h.rec.Record(flightrec.Event{
			Type:   flightrec.EvJobQueue,
			Sim:    g.enqueued,
			Engine: j.Engine,
			Unit:   -1,
			Job:    j.seq,
			Arg:    int64(j.Timing.TotalBytes()),
		})
	}
	h.backlog = append(h.backlog, g)
	h.publishBacklogLocked()
	h.cond.Broadcast()
}

// expireLocked sweeps the backlog for groups whose deadline the simulated
// clock has passed — the round-boundary abort of the deadline machinery —
// and releases their reservations. The caller (the event loop, holding
// h.mu) must close the returned jobs' done channels after unlocking.
func (h *HAL) expireLocked() (expired []*Job) {
	if len(h.backlog) == 0 {
		return nil
	}
	kept := h.backlog[:0]
	for _, g := range h.backlog {
		if g.canceled {
			continue
		}
		if g.deadline > 0 && h.simEpoch > g.deadline {
			g.canceled = true
			h.tel.Counter("hal.admission.deadline_expired").Inc()
			h.rec.Record(flightrec.Event{
				Type: flightrec.EvDeadline, Sim: h.simEpoch,
				Engine: -1, Unit: -1,
				Arg:  int64((h.simEpoch - g.deadline) / sim.Nanosecond),
				Note: "queued group overdue at round boundary",
			})
			h.releaseJobsLocked(g.jobs, fmt.Errorf(
				"hal: group overdue in backlog: %w", ErrDeadlineExceeded))
			expired = append(expired, g.jobs...)
			continue
		}
		kept = append(kept, g)
	}
	h.backlog = kept
	if len(expired) > 0 {
		h.publishBacklogLocked()
	}
	return expired
}
