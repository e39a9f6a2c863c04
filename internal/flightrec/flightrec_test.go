package flightrec

import (
	"strings"
	"sync"
	"testing"

	"doppiodb/internal/sim"
)

func TestRingRetainsMostRecent(t *testing.T) {
	// The ring allocates slots as events arrive, so every fill level of a
	// ring smaller (4) and larger (100) than the first growth step matters:
	// empty, one short of full, exactly full, wrapped, wrapped three times.
	for _, c := range []struct{ capacity, n int }{
		{4, 10},
		{4, 0}, {4, 3}, {4, 4}, {4, 12},
		{100, 0}, {100, 99}, {100, 100}, {100, 300},
	} {
		r := New(c.capacity)
		for i := 0; i < c.n; i++ {
			r.Record(Event{Type: EvJobSubmit, Engine: i, Unit: -1})
			if cap(r.buf) > c.capacity {
				t.Fatalf("cap %d, n %d: backing store grew to %d slots", c.capacity, c.n, cap(r.buf))
			}
		}
		kept := min(c.n, c.capacity)
		if r.Len() != kept {
			t.Fatalf("cap %d, n %d: Len = %d, want %d", c.capacity, c.n, r.Len(), kept)
		}
		if r.Total() != uint64(c.n) {
			t.Fatalf("cap %d, n %d: Total = %d", c.capacity, c.n, r.Total())
		}
		if r.Dropped() != uint64(c.n-kept) {
			t.Fatalf("cap %d, n %d: Dropped = %d, want %d", c.capacity, c.n, r.Dropped(), c.n-kept)
		}
		w := r.Window()
		if len(w) != kept {
			t.Fatalf("cap %d, n %d: window holds %d events, want %d", c.capacity, c.n, len(w), kept)
		}
		for i, e := range w {
			if want := c.n - kept + i; e.Engine != want || e.Seq != uint64(want) {
				t.Fatalf("cap %d, n %d: window[%d] = engine %d seq %d, want %d (most recent retained, oldest first)",
					c.capacity, c.n, i, e.Engine, e.Seq, want)
			}
		}
	}
}

func TestSequenceMonotonicAcrossReset(t *testing.T) {
	// before events, a Reset, then after events: the window restarts empty,
	// sequence numbers carry on, and refilling reuses the slots already
	// allocated — also when the Reset lands mid-growth (70 of 100) or on a
	// wrapped ring (250 of 100).
	for _, c := range []struct{ capacity, before, after int }{
		{8, 2, 1},
		{100, 70, 0}, {100, 70, 99}, {100, 70, 100}, {100, 70, 300},
		{100, 250, 99}, {100, 250, 300},
	} {
		r := New(c.capacity)
		for i := 0; i < c.before; i++ {
			r.Record(Event{})
		}
		dropped := r.Dropped()
		r.Reset()
		if r.Len() != 0 || len(r.Window()) != 0 {
			t.Fatalf("%+v: Len after Reset = %d, want 0", c, r.Len())
		}
		for i := 0; i < c.after; i++ {
			r.Record(Event{})
			if cap(r.buf) > c.capacity {
				t.Fatalf("%+v: backing store grew to %d slots", c, cap(r.buf))
			}
		}
		kept := min(c.after, c.capacity)
		w := r.Window()
		if len(w) != kept || r.Dropped() != dropped+uint64(c.after-kept) {
			t.Fatalf("%+v: window holds %d events (%d dropped), want %d (%d)",
				c, len(w), r.Dropped(), kept, dropped+uint64(c.after-kept))
		}
		for i, e := range w {
			if want := uint64(c.before + c.after - kept + i); e.Seq != want {
				t.Fatalf("%+v: window[%d].Seq = %d, want %d", c, i, e.Seq, want)
			}
		}
	}
}

func TestWallTimeStamped(t *testing.T) {
	r := New(2)
	r.Record(Event{})
	if w := r.Window(); w[0].WallNS == 0 {
		t.Fatal("Record did not stamp WallNS")
	}
	r.Record(Event{WallNS: 42})
	if w := r.Window(); w[1].WallNS != 42 {
		t.Fatalf("Record overwrote caller's WallNS: %d", w[1].WallNS)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{})
	r.Reset()
	r.SetSink(nil)
	r.DumpOnDegrade("x")
	if r.Window() != nil || r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 || r.Dumps() != 0 {
		t.Fatal("nil recorder must read as empty")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Type: EvJobSubmit, Engine: -1, Unit: -1})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("Total = %d, want 800", r.Total())
	}
	seen := make(map[uint64]bool)
	for _, e := range r.Window() {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestDumpOnDegrade(t *testing.T) {
	r := New(8)
	r.Record(Event{Type: EvWatchdog, Engine: 1, Unit: -1, Note: "stuck-done"})
	r.Record(Event{Type: EvBreakerTrip, Engine: 1, Unit: -1})

	// Without a sink the dump is counted but writes nowhere.
	r.DumpOnDegrade("watchdog")
	if r.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", r.Dumps())
	}

	var b strings.Builder
	r.SetSink(&b)
	r.DumpOnDegrade("hal: watchdog timeout")
	out := b.String()
	for _, want := range []string{"query degraded", "watchdog timeout", "breaker-trip", "stuck-done", "2 event(s) retained"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if r.Dumps() != 2 {
		t.Fatalf("Dumps = %d, want 2", r.Dumps())
	}
}

func TestMemObserverCoalescesGrants(t *testing.T) {
	r := New(64)
	o := NewMemObserver(r, 1000*sim.Microsecond)

	// Three back-to-back grants, a link idle gap, then one more.
	o.Grant(0, 16, 0, 100)
	o.Grant(0, 16, 100, 200)
	o.Grant(1, 16, 200, 300) // different engine, still contiguous: same burst
	o.Grant(0, 16, 500, 600) // gap: new burst
	o.Flush()

	var bursts []Event
	for _, e := range r.Window() {
		if e.Type == EvGrantBurst {
			bursts = append(bursts, e)
		}
	}
	if len(bursts) != 2 {
		t.Fatalf("got %d bursts, want 2 (coalesced + post-idle)", len(bursts))
	}
	if bursts[0].Arg != 48 || bursts[0].Dur != 300 {
		t.Fatalf("first burst = %d lines over %v, want 48 lines over 300ps", bursts[0].Arg, bursts[0].Dur)
	}
	if bursts[0].Sim != 1000*sim.Microsecond {
		t.Fatalf("burst not rebased onto continuous timeline: Sim = %v", bursts[0].Sim)
	}
	if bursts[0].Domain != DomainFabric {
		t.Fatalf("burst domain = %v, want fabric", bursts[0].Domain)
	}
	if bursts[1].Arg != 16 {
		t.Fatalf("second burst = %d lines, want 16", bursts[1].Arg)
	}
}

func TestTypeAndDomainNames(t *testing.T) {
	if int(numTypes) != len(typeNames) {
		t.Fatalf("typeNames has %d entries for %d types", len(typeNames), int(numTypes))
	}
	for ty := Type(0); ty < numTypes; ty++ {
		if strings.HasPrefix(ty.String(), "type(") {
			t.Fatalf("type %d has no name", ty)
		}
	}
	if DomainFabric.Clock() != sim.FabricClock || DomainPU.Clock() != sim.PUClock {
		t.Fatal("domain clock mapping wrong")
	}
}
