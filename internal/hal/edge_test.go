package hal

import (
	"context"
	"errors"
	"testing"

	"doppiodb/internal/faults"
	"doppiodb/internal/telemetry"
)

// quiet returns an explicitly silent injector: these tests probe edge paths
// with injection off, and must stay deterministic even when the CI fault
// matrix exports DOPPIO_FAULTS to the test process.
func quiet() *faults.Injector { return faults.New(faults.Options{}) }

func TestQueueFullRejectsBeforeEngineWork(t *testing.T) {
	h, region := newHAL(t)
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	h.SetInjector(quiet())
	p, _, _ := buildParams(t, region, `abc`, []string{"abc"})
	jobs := make([]*Job, 0, queueSlots)
	for i := 0; i < queueSlots; i++ {
		jobs = append(jobs, submit(t, h, i%h.Engines(), p))
	}
	_, err := h.SubmitToContext(context.Background(), 0, p)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if IsFault(err) {
		t.Error("ErrQueueFull misclassified as a hardware fault")
	}
	// Capacity is checked before Execute: the rejected submit burned no
	// engine work and leaked no status block.
	if got := reg.Counter("engine.jobs").Value(); got != queueSlots {
		t.Errorf("engine.jobs = %d, want %d", got, queueSlots)
	}
	if len(h.blockFree) != 0 {
		t.Errorf("rejected submit leaked %d freed blocks", len(h.blockFree))
	}
	// Completing the backlog frees the descriptor slots.
	runAll(t, h, jobs...)
	if _, err := h.SubmitToContext(context.Background(), 0, p); err != nil {
		t.Errorf("submit after the queue drained: %v", err)
	}
}

func TestStatusBlockReusedAfterFailedAttempt(t *testing.T) {
	// A failed attempt returns its status block to the free list (zeroed,
	// so reuse reads as "never written"); the next submit picks it up
	// instead of carving a new one from the pool slab.
	h, region := newHAL(t)
	h.SetTelemetry(telemetry.NewRegistry())
	h.SetInjector(faults.New(faults.Options{StuckDone: 1}))
	p, _, _ := buildParams(t, region, `abc`, []string{"abc"})
	if _, err := h.SubmitToContext(context.Background(), 0, p); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if h.poolNext != 1 || len(h.blockFree) != 1 {
		t.Fatalf("pool after failures: next=%d free=%d, want 1/1", h.poolNext, len(h.blockFree))
	}
	// Three failures quarantined engine 0; with injection off the next
	// submit readmits it and takes the recycled block.
	h.SetInjector(quiet())
	j := submit(t, h, 0, p)
	if !j.Done() {
		t.Error("job on recycled block not done")
	}
	if h.poolNext != 1 || len(h.blockFree) != 0 {
		t.Errorf("pool after reuse: next=%d free=%d, want 1/0", h.poolNext, len(h.blockFree))
	}
}

func TestHandshakeRecoveryAfterDSMClobber(t *testing.T) {
	// External corruption of the Device Status Memory page (not injector
	// driven): AFUPresent must report it, and the next submit must re-run
	// the AAL handshake and proceed.
	h, region := newHAL(t)
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	h.SetInjector(quiet())
	dsm, err := region.Bytes(h.dsmAddr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		dsm[i] ^= 0xFF
	}
	if h.AFUPresent() {
		t.Fatal("AFUPresent true on clobbered DSM")
	}
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	j := submit(t, h, 0, p)
	if !j.Done() {
		t.Error("job not done after handshake recovery")
	}
	if !h.AFUPresent() {
		t.Error("handshake not re-established")
	}
	if got := reg.Counter("hal.faults.handshake_loss").Value(); got != 1 {
		t.Errorf("handshake_loss = %d, want 1", got)
	}
	if got := reg.Counter("hal.rehandshakes").Value(); got != 1 {
		t.Errorf("rehandshakes = %d, want 1", got)
	}
}

func TestStatusBlockCorruptionScrubbedAtCompletion(t *testing.T) {
	// Shared memory damaged after the submit-time verification: Status
	// reports a typed corruption error (not "pending"), and the completing
	// round scrubs the block back from the HAL's authoritative statistics.
	h, region := newHAL(t)
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	h.SetInjector(quiet())
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	j := submit(t, h, 0, p)
	pool, err := region.Bytes(j.statusAddr)
	if err != nil {
		t.Fatal(err)
	}
	pool[int(j.poolOff)+8] ^= 0x55 // damage the match count in place
	done, serr := j.Status()
	if done || !errors.Is(serr, ErrStatusCorrupt) {
		t.Fatalf("Status on damaged block: done=%v err=%v", done, serr)
	}
	if j.Done() {
		t.Error("Done true on corrupted block")
	}
	comps := runAll(t, h, j)
	done, serr = j.Status()
	if serr != nil || !done {
		t.Errorf("Status after scrub: done=%v err=%v", done, serr)
	}
	if j.Stats.Matches != 1 {
		t.Errorf("authoritative stats lost: %+v", j.Stats)
	}
	if got := reg.Counter("hal.status_scrubbed").Value(); got != 1 {
		t.Errorf("status_scrubbed = %d, want 1", got)
	}
	if c := comps[0].HWTime(); c <= 0 {
		t.Errorf("completion after scrub: %v", c)
	}
}
