package hal

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"doppiodb/internal/engine"
)

// TestRuntimeStressConcurrentLifecycles is the -race hammer for the device
// runtime: many clients submit/dispatch/await (some abandoning via context
// cancel) while other goroutines flap Pause/Resume, rewrite the admission
// caps, and finally Close the runtime under load. The invariant is total
// liveness and a clean ledger: every Await returns (the test itself hangs
// otherwise), and every returned error is one of the typed sentinels.
func TestRuntimeStressConcurrentLifecycles(t *testing.T) {
	h, region := newHAL(t)
	privateReg(h)

	const (
		clients   = 8
		perClient = 40
	)
	// One JobParams per client: the functional engines write the result
	// BAT during Submit, so concurrent clients must not share an output
	// buffer (real callers allocate per-query results the same way).
	params := make([]engine.JobParams, clients)
	for i := range params {
		params[i], _, _ = buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	}
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Device flapper: pause/resume on a tight cadence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				h.Resume()
				return
			default:
			}
			h.Pause()
			time.Sleep(50 * time.Microsecond)
			h.Resume()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	// Cap flapper: swing between tight-shed, tight-block, and unbounded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		caps := []AdmissionLimits{
			{MaxGroups: 2, Policy: PolicyShed},
			{MaxGroups: 3, MaxJobs: 6, Policy: PolicyBlock},
			{},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				h.SetAdmission(AdmissionLimits{})
				return
			default:
			}
			h.SetAdmission(caps[i%len(caps)])
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var ledger sync.Map // error text -> struct{}, for post-run triage
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for q := 0; q < perClient; q++ {
				j, err := h.SubmitToContext(context.Background(), c%h.Engines(), params[c])
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("submit: %v", err)
					return
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				abandoner := rng.Intn(4) == 0
				if abandoner {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				err = h.DispatchContext(ctx, j)
				if err != nil {
					h.Discard(j)
					if cancel != nil {
						cancel()
					}
					switch {
					case errors.Is(err, ErrOverload), errors.Is(err, ErrClosed):
					default:
						t.Errorf("dispatch: %v", err)
					}
					continue
				}
				_, err = j.Await(ctx)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					switch {
					case errors.Is(err, ErrCanceled), errors.Is(err, ErrClosed),
						errors.Is(err, context.DeadlineExceeded),
						errors.Is(err, context.Canceled):
						ledger.Store(err.Error(), struct{}{})
					default:
						t.Errorf("await: %v", err)
					}
					// An abandoned job may still be queued or in flight;
					// Discard is the caller's cleanup and must be safe in
					// every state.
					h.Discard(j)
				}
			}
		}(c)
	}

	// Let the chaos run, then close the runtime under load: clients must
	// drain with ErrClosed, never hang.
	done := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		h.Close()
		close(stop)
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged: goroutines did not drain after Close")
	}
	// The runtime must be reusable-safe after Close: everything refuses
	// with ErrClosed and the backlog is empty.
	if _, err := h.SubmitToContext(context.Background(), 0, p); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v", err)
	}
	h.mu.Lock()
	backlog := len(h.backlog)
	h.mu.Unlock()
	if backlog != 0 {
		t.Errorf("backlog not empty after close: %d groups", backlog)
	}
}
