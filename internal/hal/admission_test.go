package hal

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"doppiodb/internal/faults"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// privateReg binds a registry to an existing HAL (hal.New leaves it
// detached) so its counters can be asserted on.
func privateReg(h *HAL) *telemetry.Registry {
	r := telemetry.NewRegistry()
	h.SetTelemetry(r)
	return r
}

// TestAdmissionShedAtCap fills the paused backlog to the group cap and
// checks the next dispatch is refused with ErrOverload while earlier groups
// survive and complete once the device resumes.
func TestAdmissionShedAtCap(t *testing.T) {
	h, region := newHAL(t)
	reg := privateReg(h)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	h.SetAdmission(AdmissionLimits{MaxGroups: 2, Policy: PolicyShed})
	h.Pause()
	var admitted []*Job
	for i := 0; i < 2; i++ {
		j := submit(t, h, i, p)
		dispatch(t, h, j)
		admitted = append(admitted, j)
	}
	over := submit(t, h, 2, p)
	if err := h.DispatchContext(context.Background(), over); !errors.Is(err, ErrOverload) {
		t.Fatalf("over-cap dispatch err = %v, want ErrOverload", err)
	}
	if got := reg.Counter("hal.admission.shed").Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	h.Discard(over)
	h.Resume()
	for i, j := range admitted {
		if _, err := j.Await(context.Background()); err != nil {
			t.Fatalf("await admitted %d: %v", i, err)
		}
	}
	// Byte and job caps shed too.
	h.SetAdmission(AdmissionLimits{MaxBytes: 1, Policy: PolicyShed})
	h.Pause()
	a := submit(t, h, 0, p)
	b := submit(t, h, 1, p)
	if err := h.DispatchContext(context.Background(), a); !errors.Is(err, ErrOverload) {
		t.Fatalf("byte-cap dispatch err = %v", err)
	}
	h.SetAdmission(AdmissionLimits{MaxJobs: 1, Policy: PolicyShed})
	if err := h.DispatchContext(context.Background(), a, b); !errors.Is(err, ErrOverload) {
		t.Fatalf("job-cap dispatch err = %v", err)
	}
	h.Discard(a, b)
	h.Resume()
	h.Close()
}

// TestAdmissionBlockBackpressure parks a dispatcher at the cap instead of
// shedding; draining the backlog must wake it and both groups complete.
func TestAdmissionBlockBackpressure(t *testing.T) {
	h, region := newHAL(t)
	reg := privateReg(h)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	h.SetAdmission(AdmissionLimits{MaxGroups: 1, Policy: PolicyBlock})
	h.Pause()
	first := submit(t, h, 0, p)
	dispatch(t, h, first)
	second := submit(t, h, 1, p)
	dispatched := make(chan error, 1)
	go func() { dispatched <- h.DispatchContext(context.Background(), second) }()
	// The dispatcher must actually park: it cannot proceed while the
	// device is paused with the backlog at cap.
	select {
	case err := <-dispatched:
		t.Fatalf("blocked dispatch returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	h.Resume()
	if err := <-dispatched; err != nil {
		t.Fatalf("blocked dispatch err = %v", err)
	}
	if _, err := first.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hal.admission.blocked").Value(); got != 1 {
		t.Errorf("blocked counter = %d, want 1", got)
	}
	h.Close()
}

// TestAdmissionBlockHonorsContext cancels a parked dispatcher's context:
// the dispatch must abandon with an error matching both ErrOverload and
// context.Canceled, and the job must stay discardable.
func TestAdmissionBlockHonorsContext(t *testing.T) {
	h, region := newHAL(t)
	privateReg(h)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	h.SetAdmission(AdmissionLimits{MaxGroups: 1, Policy: PolicyBlock})
	h.Pause()
	first := submit(t, h, 0, p)
	dispatch(t, h, first)
	second := submit(t, h, 1, p)
	ctx, cancel := context.WithCancel(context.Background())
	dispatched := make(chan error, 1)
	go func() { dispatched <- h.DispatchContext(ctx, second) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	err := <-dispatched
	if !errors.Is(err, ErrOverload) || !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned dispatch err = %v, want ErrOverload and context.Canceled", err)
	}
	h.Discard(second)
	h.Resume()
	if _, err := first.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.Close()
}

// TestAdmissionDeadlineRefusal dispatches under a budget smaller than the
// cost model's floor (the parametrization time alone): admission must
// refuse outright with an error matching both ErrDeadlineExceeded and
// context.DeadlineExceeded, before any reservation enters the backlog.
func TestAdmissionDeadlineRefusal(t *testing.T) {
	h, region := newHAL(t)
	reg := privateReg(h)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	j := submit(t, h, 0, p)
	ctx := WithBudget(context.Background(), 1*sim.Nanosecond)
	err := h.DispatchContext(ctx, j)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to match context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "ETA") {
		t.Errorf("refusal error carries no ETA: %v", err)
	}
	if got := reg.Counter("hal.admission.deadline_refused").Value(); got != 1 {
		t.Errorf("deadline_refused counter = %d, want 1", got)
	}
	h.Discard(j)
	// A budget the ETA fits inside admits normally.
	j2 := submit(t, h, 0, p)
	if err := h.DispatchContext(WithBudget(context.Background(), sim.Second), j2); err != nil {
		t.Fatalf("generous budget refused: %v", err)
	}
	if _, err := j2.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.Close()
}

// TestAdmissionDeadlineExpiresInQueue exploits the gap between the cost
// model's ETA (priced at nominal QPI bandwidth) and reality on a degraded
// link (qpi=0.5 halves the effective rate): a budget of ETA plus half the
// transfer term passes admission, but by the time round one finishes the
// simulated clock has passed the group's deadline and the round-boundary
// sweep must abort it with ErrDeadlineExceeded.
func TestAdmissionDeadlineExpiresInQueue(t *testing.T) {
	in := faults.New(faults.Options{QPIFactor: 0.5})
	h, region, reg := newFaultHAL(t, in)
	rows := make([]string, 400)
	for i := range rows {
		rows[i] = strings.Repeat("x", 70)
	}
	p, _, _ := buildParams(t, region, `abc`, rows)
	h.Pause()
	// Fill engine 0's first round to the admission cap so the budgeted
	// group cannot ride along in round one.
	var fillers []*Job
	for i := 0; i < DefaultAdmissionCap; i++ {
		j := submit(t, h, 0, p)
		dispatch(t, h, j)
		fillers = append(fillers, j)
	}
	late := submit(t, h, 0, p)
	h.mu.Lock()
	eta := h.etaLocked()
	h.mu.Unlock()
	// eta - ParametrizeTime is the transfer term at nominal bandwidth; at
	// qpi=0.5 the real round takes roughly twice that, so +50% lands the
	// deadline between the estimate and reality.
	budget := eta + (eta-ParametrizeTime)/2
	if err := h.DispatchContext(WithBudget(context.Background(), budget), late); err != nil {
		t.Fatalf("budgeted dispatch refused at admission: %v", err)
	}
	h.Resume()
	for i, j := range fillers {
		if _, err := j.Await(context.Background()); err != nil {
			t.Fatalf("await filler %d: %v", i, err)
		}
	}
	_, err := late.Await(context.Background())
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("overdue group err = %v, want ErrDeadlineExceeded", err)
	}
	if got := reg.Counter("hal.admission.deadline_expired").Value(); got != 1 {
		t.Errorf("deadline_expired counter = %d, want 1", got)
	}
	h.Close()
}

// TestStateMachine walks the /health state machine: ok on an idle healthy
// device, overloaded while the backlog is at cap, degraded while an engine
// is quarantined, and back to ok.
func TestStateMachine(t *testing.T) {
	h, region := newHAL(t)
	privateReg(h)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	if got := h.State(); got != "ok" {
		t.Fatalf("idle state = %q, want ok", got)
	}
	h.SetAdmission(AdmissionLimits{MaxGroups: 1, Policy: PolicyShed})
	h.Pause()
	j := submit(t, h, 0, p)
	dispatch(t, h, j)
	if got := h.State(); got != "overloaded" {
		t.Errorf("state at cap = %q, want overloaded", got)
	}
	h.Resume()
	if _, err := j.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := h.State(); got != "ok" {
		t.Errorf("state after drain = %q, want ok", got)
	}
	h.Close()

	// A quarantined engine that fabric reset cannot revive (the injector
	// never lets it recover) leaves the device degraded.
	in := faults.New(faults.Options{DropEnabled: true, DropEngine: 0})
	hq, region2, _ := newSingleEngineHAL(t, in)
	pq, _, _ := buildParams(t, region2, `abc`, []string{"xxabc"})
	if _, err := hq.SubmitToContext(context.Background(), 0, pq); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("wedged submit err = %v", err)
	}
	if got := hq.State(); got != "degraded" {
		t.Errorf("state with quarantined engine = %q, want degraded", got)
	}
	hq.Close()
}

// TestAdmissionShedRacesSetAdmission sheds dispatches while another
// goroutine keeps rewriting the caps. The shed error reports the caps it
// was refused against, read under the lock; run under -race this is the
// check that the error is not formatted from the live field.
func TestAdmissionShedRacesSetAdmission(t *testing.T) {
	h, region := newHAL(t)
	privateReg(h)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	// Both limit sets keep the backlog full once one group waits in it.
	limits := []AdmissionLimits{
		{MaxGroups: 1, Policy: PolicyShed},
		{MaxGroups: 1, MaxJobs: 1, Policy: PolicyShed},
	}
	h.SetAdmission(limits[0])
	h.Pause()
	dispatch(t, h, submit(t, h, 0, p))
	over := submit(t, h, 1, p)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.SetAdmission(limits[i%len(limits)])
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				err := h.DispatchContext(context.Background(), over)
				if !errors.Is(err, ErrOverload) || !strings.Contains(err.Error(), "MaxGroups:1") {
					t.Errorf("dispatch against a full backlog: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h.Discard(over)
	h.Resume()
	h.Close()
}
