package hal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"doppiodb/internal/engine"
	"doppiodb/internal/faults"
	"doppiodb/internal/fpga"
	"doppiodb/internal/shmem"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// newFaultHAL builds a HAL with its own registry and the given injector,
// immune to any process-default injection (the CI fault matrix sets
// DOPPIO_FAULTS for every test process).
func newFaultHAL(t *testing.T, in *faults.Injector) (*HAL, *shmem.Region, *telemetry.Registry) {
	t.Helper()
	h, region := newHAL(t)
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	h.SetInjector(in)
	return h, region, reg
}

// newSingleEngineHAL builds a one-engine HAL: its single breaker is a
// quorum, so fabric-reset and readmission paths are fully observable.
func newSingleEngineHAL(t *testing.T, in *faults.Injector) (*HAL, *shmem.Region, *telemetry.Registry) {
	t.Helper()
	dep := fpga.DefaultDeployment()
	dep.Engines = 1
	dev, err := fpga.NewDevice(dep)
	if err != nil {
		t.Fatal(err)
	}
	region := shmem.NewRegion(1 << 30)
	h, err := New(region, dev)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	h.SetInjector(in)
	return h, region, reg
}

// TestFaultStuckDoneExhaustsRetries: a job that faults on every attempt is
// retried on its own engine only, maxAttempts times, and then fails typed.
func TestFaultStuckDoneExhaustsRetries(t *testing.T) {
	in := faults.New(faults.Options{Seed: 1, StuckDone: 1})
	h, region, reg := newFaultHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	_, err := h.SubmitToContext(context.Background(), 2, p)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !IsFault(err) {
		t.Error("retries-exhausted error not classified as fault")
	}
	if got := reg.Counter("hal.faults.stuck_done").Value(); got != maxAttempts {
		t.Errorf("stuck_done detections = %d, want %d", got, maxAttempts)
	}
	if got := reg.Counter("hal.retries").Value(); got != maxAttempts-1 {
		t.Errorf("retries = %d, want %d", got, maxAttempts-1)
	}
	if got := reg.Counter("hal.jobs").Value(); got != 0 {
		t.Errorf("failed job registered: hal.jobs = %d", got)
	}
	for _, hs := range h.Health() {
		want := int64(0)
		if hs.Engine == 2 {
			want = maxAttempts
		}
		if hs.Fails != want {
			t.Errorf("engine %d saw %d failed attempts, want %d", hs.Engine, hs.Fails, want)
		}
	}
	// Failed attempts must not leave queued timing work behind.
	if h.QueuedBytes() != 0 {
		t.Error("failed attempts left queued bytes")
	}
}

func TestFaultStuckDoneRecoversByRetry(t *testing.T) {
	in := faults.New(faults.Options{Seed: 7, StuckDone: 0.5})
	h, region, reg := newFaultHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	ok, retried := 0, 0
	var jobs []*Job
	for i := 0; i < 20; i++ {
		j, err := h.SubmitToContext(context.Background(), i%h.Engines(), p)
		if err != nil {
			if !IsFault(err) {
				t.Fatalf("submit %d: non-fault error %v", i, err)
			}
			continue
		}
		ok++
		if j.Stats.Strings != 2 || j.Stats.Matches != 1 {
			t.Fatalf("submit %d: wrong stats after retry: %+v", i, j.Stats)
		}
		if !j.Done() {
			t.Fatalf("submit %d: accepted job without done bit", i)
		}
		if j.penalty > 0 {
			retried++
			if j.penalty%DoneWaitTimeout != 0 || j.penalty >= maxAttempts*DoneWaitTimeout {
				t.Fatalf("submit %d: implausible watchdog penalty %v", i, j.penalty)
			}
		}
		jobs = append(jobs, j)
	}
	if ok == 0 {
		t.Fatal("no submit survived 50% stuck-done")
	}
	if retried == 0 {
		t.Error("no job succeeded via retry at 50% stuck-done (seed-dependent; pick another seed)")
	}
	if reg.Counter("hal.faults.stuck_done").Value() == 0 {
		t.Error("0.5-rate stuck-done never fired in 20 submits")
	}
	comps := runAll(t, h, jobs...)
	// Each retried job's completion carries its accrued watchdog latency.
	for i, j := range jobs {
		if c := comps[i].HWTime(); c < j.penalty+ParametrizeTime {
			t.Errorf("completion %v dropped the %v watchdog penalty", c, j.penalty)
		}
	}
}

func TestFaultConfigCorruptDetected(t *testing.T) {
	in := faults.New(faults.Options{Seed: 3, ConfigCorrupt: 1})
	h, region, reg := newFaultHAL(t, in)
	p, _, res := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	_, err := h.SubmitToContext(context.Background(), 0, p)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if got := reg.Counter("hal.faults.config_corrupt").Value(); got != maxAttempts {
		t.Errorf("config_corrupt detections = %d, want %d", got, maxAttempts)
	}
	// The corrupted vector must never reach a PU: no engine work, no
	// result bytes written.
	if got := reg.Counter("engine.jobs").Value(); got != 0 {
		t.Errorf("engine executed %d jobs with a corrupt vector", got)
	}
	for i := 0; i < res.Count(); i++ {
		if res.Get(i) != 0 {
			t.Fatalf("result BAT written despite corrupt config (row %d)", i)
		}
	}
}

func TestFaultStatusCorruptDetected(t *testing.T) {
	in := faults.New(faults.Options{Seed: 5, StatusCorrupt: 1})
	h, region, reg := newFaultHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	_, err := h.SubmitToContext(context.Background(), 0, p)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if got := reg.Counter("hal.faults.status_corrupt").Value(); got != maxAttempts {
		t.Errorf("status_corrupt detections = %d, want %d", got, maxAttempts)
	}
}

func TestFaultEngineDropQuarantinesEngine(t *testing.T) {
	in := faults.New(faults.Options{DropEnabled: true, DropEngine: 1})
	h, region, reg := newFaultHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})

	// Submits hammer the wedged engine until the breaker trips.
	if _, err := h.SubmitToContext(context.Background(), 1, p); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("submit err = %v", err)
	}
	hs := h.Health()
	if !hs[1].Quarantined {
		t.Fatalf("engine 1 not quarantined after %d failures: %+v", maxAttempts, hs[1])
	}
	if hs[1].Fails != maxAttempts {
		t.Errorf("engine 1 fails = %d, want %d", hs[1].Fails, maxAttempts)
	}
	if got := reg.Counter("hal.engine.quarantined").Value(); got != 1 {
		t.Errorf("quarantine counter = %d", got)
	}
	// Another submit is refused outright: the engine cannot be readmitted
	// while the injector holds it down, and it takes no new attempt.
	if _, err := h.SubmitToContext(context.Background(), 1, p); !errors.Is(err, ErrEngineQuarantined) {
		t.Fatalf("quarantined submit err = %v", err)
	}
	if got := h.Health()[1].Fails; got != maxAttempts {
		t.Errorf("refused submit attempted the quarantined engine: fails = %d", got)
	}
	// The other engines keep serving.
	for i := 0; i < 12; i++ {
		e := []int{0, 2, 3}[i%3]
		if j := submit(t, h, e, p); j.Engine != e {
			t.Fatalf("job for engine %d ran on engine %d", e, j.Engine)
		}
	}
	if got := reg.Gauge("hal.engines.healthy").Value(); got != 3 {
		t.Errorf("healthy gauge = %d, want 3", got)
	}
}

func TestFaultEngineDropReadmissionAfterRecovery(t *testing.T) {
	// The sole engine accepts two jobs, wedges, and gets quarantined. On a
	// one-engine device that single breaker is a quorum, so the fabric
	// reset fires immediately and its readmission probe (the injector lets
	// the engine recover after one probe) brings the engine back before
	// the failed submit even returns.
	in := faults.New(faults.Options{DropEnabled: true, DropEngine: 0, DropAfter: 2, DropRecover: 1})
	h, region, reg := newSingleEngineHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})

	for i := 0; i < 2; i++ {
		submit(t, h, 0, p)
	}
	if _, err := h.SubmitToContext(context.Background(), 0, p); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("wedged submit err = %v", err)
	}
	if h.FabricResets() != 1 {
		t.Fatalf("fabric resets = %d, want 1 (sole breaker is a quorum)", h.FabricResets())
	}
	if j := submit(t, h, 0, p); !j.Done() {
		t.Error("post-recovery job not done")
	}
	hs := h.Health()[0]
	if hs.Quarantined || hs.Readmissions != 1 {
		t.Errorf("health after readmission: %+v", hs)
	}
	if got := reg.Counter("hal.engine.readmitted").Value(); got != 1 {
		t.Errorf("readmitted counter = %d", got)
	}
}

// TestFaultAllEnginesQuarantinedTyped: once every engine is quarantined and
// neither the fabric reset nor a fresh handshake can readmit one, a submit
// fails at once with the typed ErrEngineQuarantined — a fault, so core
// retries the query and then degrades it to software.
func TestFaultAllEnginesQuarantinedTyped(t *testing.T) {
	in := faults.New(faults.Options{DropEnabled: true, DropEngine: 0}) // never recovers
	h, region, _ := newSingleEngineHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	if _, err := h.SubmitToContext(context.Background(), 0, p); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("first submit err = %v", err)
	}
	_, err := h.SubmitToContext(context.Background(), 0, p)
	if !errors.Is(err, ErrEngineQuarantined) {
		t.Fatalf("err = %v, want ErrEngineQuarantined", err)
	}
	if !IsFault(err) {
		t.Error("quarantined-engine error not classified as fault")
	}
	if hs := h.Health()[0]; !hs.Quarantined || hs.Fails != maxAttempts {
		t.Errorf("health after the refused submit: %+v", hs)
	}
}

func TestFaultHandshakeLossRecovery(t *testing.T) {
	in := faults.New(faults.Options{Seed: 11, HandshakeLoss: 1})
	h, region, reg := newFaultHAL(t, in)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	for i := 0; i < 5; i++ {
		j, err := h.SubmitToContext(context.Background(), i%h.Engines(), p)
		if err != nil {
			t.Fatalf("submit %d under handshake loss: %v", i, err)
		}
		if !j.Done() {
			t.Fatalf("submit %d: job not done", i)
		}
	}
	if !h.AFUPresent() {
		t.Error("handshake not re-established")
	}
	if got := reg.Counter("hal.faults.handshake_loss").Value(); got != 5 {
		t.Errorf("handshake_loss detections = %d, want 5", got)
	}
	if got := reg.Counter("hal.rehandshakes").Value(); got != 5 {
		t.Errorf("rehandshakes = %d, want 5", got)
	}
}

func TestFaultQPIDegradedSlowsBatch(t *testing.T) {
	run := func(in *faults.Injector) (total sim.Time) {
		h, region, _ := newFaultHAL(t, in)
		rows := make([]string, 4096)
		for i := range rows {
			rows[i] = fmt.Sprintf("row %d with some Strasse text padding padding", i)
		}
		p, _, _ := buildParams(t, region, `Strasse`, rows)
		var jobs []*Job
		for e := 0; e < 4; e++ {
			jobs = append(jobs, submit(t, h, e, p))
		}
		for _, c := range runAll(t, h, jobs...) {
			total += c.HWTime()
		}
		return total
	}
	healthy := run(nil)
	degraded := run(faults.New(faults.Options{QPIFactor: 0.5}))
	if degraded <= healthy {
		t.Errorf("half QPI bandwidth not slower: healthy %v, degraded %v", healthy, degraded)
	}
}

func TestFaultInjectorOffBitIdentical(t *testing.T) {
	// A constructed-but-quiet injector must leave results and simulated
	// timings identical to no injector at all: zero overhead when off.
	type outcome struct {
		strings, matches int
		completed        sim.Time
		done             sim.Time
	}
	run := func(in *faults.Injector) []outcome {
		h, region, _ := newFaultHAL(t, in)
		p, _, _ := buildParams(t, region, `Strasse`, []string{
			"John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
			"Anna|Miller|9 Lindenweg|80331|Muenchen",
		})
		var jobs []*Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, submit(t, h, i%h.Engines(), p))
		}
		var out []outcome
		for i, c := range runAll(t, h, jobs...) {
			out = append(out, outcome{jobs[i].Stats.Strings, jobs[i].Stats.Matches, c.HWTime(), c.Done})
		}
		return out
	}
	bare := run(nil)
	quiet := run(faults.New(faults.Options{Seed: 99}))
	if len(bare) != len(quiet) {
		t.Fatal("job count differs")
	}
	for i := range bare {
		if bare[i] != quiet[i] {
			t.Errorf("job %d differs with quiet injector: %+v vs %+v", i, bare[i], quiet[i])
		}
	}
}

func TestFaultConcurrentSubmitsInvariant(t *testing.T) {
	// Race-checked invariant: under mixed injection, every submit either
	// returns a correct completed job or a typed fault error — never a
	// hang, never corruption.
	in := faults.New(faults.Options{
		Seed: 13, StuckDone: 0.2, ConfigCorrupt: 0.1, StatusCorrupt: 0.1, HandshakeLoss: 0.1,
	})
	h, region, _ := newFaultHAL(t, in)
	// Each goroutine owns its params (and result BAT): concurrent jobs
	// never share an output buffer, exactly like partitioned submission.
	var ps [8]engine.JobParams
	for g := range ps {
		ps[g], _, _ = buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []*Job
	errs := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := h.SubmitToContext(context.Background(), g%h.Engines(), ps[g])
				mu.Lock()
				if err != nil {
					if !IsFault(err) {
						t.Errorf("non-fault error: %v", err)
					}
					errs++
				} else {
					if j.Stats.Strings != 2 || j.Stats.Matches != 1 {
						t.Errorf("wrong stats: %+v", j.Stats)
					}
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for i, c := range runAll(t, h, jobs...) {
		j := jobs[i]
		if c.HWTime() <= 0 {
			t.Fatalf("accepted job without completion: %v", c.HWTime())
		}
		if done, err := j.Status(); err != nil || !done {
			t.Fatalf("accepted job status: %v %v", done, err)
		}
	}
	t.Logf("concurrent: %d ok, %d fault errors", len(jobs), errs)
}
