package hal

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"doppiodb/internal/engine"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/sim"
	"doppiodb/internal/topdown"
)

// TestAdmissionCapSplitsRounds pins more single-job groups to one engine
// than the admission cap allows; the overflow must wait for a later round
// and report the wait in its completion record.
func TestAdmissionCapSplitsRounds(t *testing.T) {
	h, region := newHAL(t)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	h.Pause()
	var jobs []*Job
	for i := 0; i < DefaultAdmissionCap+2; i++ {
		j := submit(t, h, 0, p)
		dispatch(t, h, j)
		jobs = append(jobs, j)
	}
	h.Resume()
	comps := make([]Completion, len(jobs))
	for i, j := range jobs {
		c, err := j.Await(context.Background())
		if err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
		comps[i] = c
	}
	first := comps[0].Admitted
	for i := 0; i < DefaultAdmissionCap; i++ {
		if comps[i].Admitted != first {
			t.Errorf("job %d admitted at %v, want first round %v", i, comps[i].Admitted, first)
		}
	}
	for i := DefaultAdmissionCap; i < len(comps); i++ {
		if comps[i].Admitted <= first {
			t.Errorf("overflow job %d admitted at %v, not after round one (%v)",
				i, comps[i].Admitted, first)
		}
		if comps[i].QueueWait() <= 0 {
			t.Errorf("overflow job %d reports no queue wait", i)
		}
	}
}

// TestAwaitCancelAbortsQueuedGroup cancels a group still in the backlog:
// the whole group must be released (status blocks, volume accounting) and
// every sibling's Await must report the cancellation, while other groups
// run unaffected.
func TestAwaitCancelAbortsQueuedGroup(t *testing.T) {
	h, region := newHAL(t)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	h.Pause()
	j1 := submit(t, h, 0, p)
	dispatch(t, h, j1)
	a := submit(t, h, 0, p)
	b := submit(t, h, 1, p)
	dispatch(t, h, a, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Await(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled await err = %v", err)
	}
	if _, err := completion(a); err != ErrCanceled {
		t.Errorf("canceled job completion err = %v", err)
	}
	// The sibling partition died with its group.
	if _, err := b.Await(context.Background()); err != ErrCanceled {
		t.Errorf("sibling await err = %v, want ErrCanceled", err)
	}
	// Only the surviving group's volume remains queued.
	if got := h.QueuedBytes(); got != int64(j1.Timing.TotalBytes()) {
		t.Errorf("QueuedBytes = %d after cancel, want %d", got, j1.Timing.TotalBytes())
	}
	h.Resume()
	c, err := j1.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.Done <= c.Admitted {
		t.Errorf("surviving job record implausible: %+v", c)
	}
	if h.QueuedBytes() != 0 {
		t.Error("queued bytes after the surviving group completed")
	}
}

// TestDiscardReleasesUndispatched covers the partial-submit failure path:
// submitted-but-never-dispatched jobs are released and cannot be
// dispatched afterwards.
func TestDiscardReleasesUndispatched(t *testing.T) {
	h, region := newHAL(t)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	j1 := submit(t, h, 0, p)
	j2 := submit(t, h, 1, p)
	h.Discard(j1, j2)
	if h.QueuedBytes() != 0 {
		t.Errorf("QueuedBytes = %d after discard", h.QueuedBytes())
	}
	if len(h.blockFree) != 2 {
		t.Errorf("discard freed %d blocks, want 2", len(h.blockFree))
	}
	if _, err := completion(j1); err != ErrCanceled {
		t.Errorf("discarded job completion err = %v", err)
	}
	if err := h.DispatchContext(context.Background(), j1); err != ErrBadDispatch {
		t.Errorf("dispatch of discarded job err = %v", err)
	}
}

// TestCloseCancelsBacklog shuts the runtime down with work queued: the
// backlog is canceled, awaiters unblock, and further submits are refused.
func TestCloseCancelsBacklog(t *testing.T) {
	h, region := newHAL(t)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc"})
	h.Pause()
	j := submit(t, h, 0, p)
	dispatch(t, h, j)
	spare := submit(t, h, 1, p)
	h.Close()
	h.Close() // idempotent
	if _, err := j.Await(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("await after close err = %v, want ErrClosed", err)
	}
	if _, err := h.SubmitToContext(context.Background(), 0, p); err != ErrClosed {
		t.Errorf("submit after close err = %v", err)
	}
	if err := h.DispatchContext(context.Background(), spare); err != ErrClosed {
		t.Errorf("dispatch after close err = %v", err)
	}
}

// TestRoundMatchesDirectSimulate is the bit-identity anchor: one group's
// round through the asynchronous runtime must reproduce, per job, exactly
// what a direct memmodel.Simulate over the same queues computes, and the
// per-job attribution must sum to the round's global counters. The round is
// seeded — engine 0 carries two jobs, so the inter-job switch charged to
// the entering job is in it, and the big jobs span two offset batches — and
// every job's Completion and every EvEngineConfig / EvJobExec window is
// pinned to the literals captured before memmodel's per-job ledger replaced
// the HAL's own grant-stream attribution.
func TestRoundMatchesDirectSimulate(t *testing.T) {
	h, region := newHAL(t)
	rec := flightrec.New(0)
	h.SetRecorder(rec)
	big := make([]string, 9000)
	for i := range big {
		big[i] = "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"
	}
	pBig, _, _ := buildParams(t, region, `Strasse`, big)
	pSmall, _, _ := buildParams(t, region, `Strasse`, big[:64])
	var jobs []*Job
	for _, sub := range []struct {
		engine int
		p      engine.JobParams
	}{{0, pBig}, {1, pBig}, {2, pBig}, {0, pSmall}} {
		jobs = append(jobs, submit(t, h, sub.engine, sub.p))
	}
	comps := runAll(t, h, jobs...)
	queues := make([][]memmodel.Job, h.Engines())
	slot := make([]int, len(jobs))
	for i, j := range jobs {
		slot[i] = len(queues[j.Engine])
		queues[j.Engine] = append(queues[j.Engine], j.Timing)
	}
	res := memmodel.Simulate(*h.Params(), queues)
	var bytes, grants, switches int64
	var busy sim.Time
	for i, j := range jobs {
		if want := res.Done[j.Engine][slot[i]] + ParametrizeTime; comps[i].HWTime() != want {
			t.Errorf("job %d hardware time %v, direct simulation %v", i, comps[i].HWTime(), want)
		}
		bytes += comps[i].Bytes
		grants += comps[i].Grants
		switches += comps[i].Switches
		busy += comps[i].LinkBusy
	}
	if bytes != res.BytesMoved || grants != res.Grants || switches != res.Switches || busy != res.BusyTime {
		t.Errorf("attribution sums (bytes %d grants %d switches %d busy %v) != round totals (%d %d %d %v)",
			bytes, grants, switches, busy, res.BytesMoved, res.Grants, res.Switches, res.BusyTime)
	}
	// Captured at the parent commit (hal.attribution + MemObserver windows;
	// Start is where the parent's job-exec window opened). The round starts
	// at epoch 0 and the group never queued, so Enqueued = Admitted = 0.
	ledger := func(start, done sim.Time, bytes, grants, switches int64, linkBusy,
		busy, in, sw, out, wall sim.Time) Completion {
		return Completion{JobLedger: memmodel.JobLedger{
			Start: start, Done: done, Bytes: bytes, Grants: grants, Switches: switches, LinkBusy: linkBusy,
			Buckets: topdown.Buckets{Busy: busy, StallInput: in, StallSwitch: sw, StallOutput: out,
				Config: ParametrizeTime, Wall: wall}}}
	}
	for i, want := range []Completion{
		ledger(0, 269845528, 558080, 547, 3, 85857120, 84380000, 169746144, 12600000, 2820000, 269846144),
		ledger(157536, 269884912, 558080, 547, 3, 85857120, 84380000, 169785528, 12600000, 2820000, 269885528),
		ledger(315072, 269924296, 558080, 547, 3, 85857120, 84380000, 169824912, 12600000, 2820000, 269924912),
		ledger(273746144, 278864604, 3968, 5, 2, 610452, 600000, 0, 8400000, 20000, 9320000),
	} {
		if comps[i] != want {
			t.Errorf("job %d completion = %+v, parent's was %+v", i, comps[i], want)
		}
	}
	type window struct {
		typ      flightrec.Type
		engine   int
		job      int64
		sim, dur sim.Time
	}
	var windows []window
	for _, ev := range rec.Window() {
		if ev.Type == flightrec.EvEngineConfig || ev.Type == flightrec.EvJobExec {
			windows = append(windows, window{ev.Type, ev.Engine, ev.Job, ev.Sim, ev.Dur})
		}
	}
	wantWindows := []window{
		{flightrec.EvEngineConfig, 0, 1, 0, 300000},
		{flightrec.EvJobExec, 0, 1, 0, 269845528},
		{flightrec.EvEngineConfig, 0, 4, 273746144, 300000},
		{flightrec.EvJobExec, 0, 4, 273746144, 5118460},
		{flightrec.EvEngineConfig, 1, 2, 157536, 300000},
		{flightrec.EvJobExec, 1, 2, 157536, 269727376},
		{flightrec.EvEngineConfig, 2, 3, 315072, 300000},
		{flightrec.EvJobExec, 2, 3, 315072, 269609224},
	}
	if !reflect.DeepEqual(windows, wantWindows) {
		t.Errorf("job timeline windows = %v, parent's were %v", windows, wantWindows)
	}
}
