package obs

import (
	"bytes"
	"strings"
	"testing"
)

// fastEvent is a clean completion well under any slow threshold.
func fastEvent(simNS int64) Event {
	return Event{SimNS: simNS, Pattern: "Strasse", Placement: "fpga",
		Outcome: OutcomeCompleted, Rows: 100, TotalNS: 1000}
}

// Tail-biased sampling: notable events (any non-completed outcome, any
// retry, any hybrid, any slow completion) always survive; the fast happy
// path is kept one-in-N by a deterministic counter.
func TestLogTailBiasedSampling(t *testing.T) {
	l := NewLog(LogOptions{Capacity: 64, SampleEvery: 4, SlowNS: 1_000_000})
	for i := 0; i < 8; i++ {
		l.Record(fastEvent(int64(i)))
	}
	l.Record(Event{SimNS: 100, Outcome: OutcomeShed, Cause: "overload"})
	l.Record(Event{SimNS: 101, Outcome: OutcomeCompleted, Retries: 2, TotalNS: 1000})
	l.Record(Event{SimNS: 102, Outcome: OutcomeCompleted, Hybrid: true, TotalNS: 1000})
	l.Record(Event{SimNS: 103, Outcome: OutcomeCompleted, TotalNS: 2_000_000}) // slow
	l.Record(Event{SimNS: 104, Outcome: OutcomeDeadline})

	st := l.Stats()
	if st.Submitted != 13 {
		t.Fatalf("submitted: got %d, want 13", st.Submitted)
	}
	if st.Notable != 5 {
		t.Fatalf("notable: got %d, want 5 (shed, retried, hybrid, slow, deadline)", st.Notable)
	}
	// 8 fast events at one-in-4: events 1 and 5 kept, 6 sampled out.
	if st.SampledOut != 6 {
		t.Fatalf("sampled out: got %d, want 6", st.SampledOut)
	}
	if st.Kept != 7 {
		t.Fatalf("kept: got %d, want 7 (2 sampled + 5 notable)", st.Kept)
	}
	if st.ByOutcome[OutcomeCompleted] != 11 || st.ByOutcome[OutcomeShed] != 1 || st.ByOutcome[OutcomeDeadline] != 1 {
		t.Fatalf("by-outcome split wrong: %+v", st.ByOutcome)
	}
	// Every notable event is in the window; sampled fast events are marked.
	var sampled, notable int
	for _, ev := range l.Window(0) {
		if ev.Sampled {
			sampled++
		} else {
			notable++
		}
	}
	if sampled != 2 || notable != 5 {
		t.Fatalf("window split: %d sampled / %d notable, want 2/5", sampled, notable)
	}
}

// The ring is bounded: old events are evicted, Seq keeps counting, and
// Window returns the most recent events oldest-first.
func TestLogRingEviction(t *testing.T) {
	// The ring allocates slots as events arrive: check every fill level of
	// a ring smaller (4) and larger (100) than the first growth step.
	for _, c := range []struct{ capacity, n int }{
		{4, 10},
		{4, 0}, {4, 3}, {4, 4}, {4, 12},
		{100, 0}, {100, 99}, {100, 100}, {100, 300},
	} {
		l := NewLog(LogOptions{Capacity: c.capacity, SampleEvery: 1})
		for i := 0; i < c.n; i++ {
			l.Record(fastEvent(int64(i)))
			if cap(l.buf) > c.capacity {
				t.Fatalf("cap %d, n %d: backing store grew to %d slots", c.capacity, c.n, cap(l.buf))
			}
		}
		kept := min(c.n, c.capacity)
		st := l.Stats()
		if st.Kept != uint64(c.n) || st.Evicted != uint64(c.n-kept) {
			t.Fatalf("cap %d, n %d: kept/evicted: got %d/%d, want %d/%d",
				c.capacity, c.n, st.Kept, st.Evicted, c.n, c.n-kept)
		}
		win := l.Window(0)
		if len(win) != kept {
			t.Fatalf("cap %d, n %d: window size: got %d, want %d", c.capacity, c.n, len(win), kept)
		}
		for i, ev := range win {
			if want := uint64(c.n - kept + 1 + i); ev.Seq != want {
				t.Fatalf("cap %d, n %d: window[%d].Seq: got %d, want %d (oldest first)",
					c.capacity, c.n, i, ev.Seq, want)
			}
		}
		if kept >= 2 {
			if got := l.Window(2); len(got) != 2 || got[1].Seq != uint64(c.n) {
				t.Fatalf("cap %d, n %d: Window(2) wrong: %+v", c.capacity, c.n, got)
			}
		}
	}
}

// Identical event sequences export byte-identical JSONL.
func TestLogJSONLDeterministic(t *testing.T) {
	run := func() string {
		l := NewLog(LogOptions{Capacity: 64, SampleEvery: 4})
		for i := 0; i < 20; i++ {
			ev := fastEvent(int64(i * 100))
			ev.Phases = map[string]int64{"HAL": 10, "Database": 20, "Hardware Processing": 30}
			l.Record(ev)
		}
		l.Record(Event{SimNS: 9000, Outcome: OutcomeShed, Cause: "overload"})
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf, 0); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("JSONL export not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"outcome":"shed"`) {
		t.Fatalf("export missing the shed event:\n%s", a)
	}
	if strings.Contains(a, "wall") {
		t.Fatalf("export must not carry wall-clock fields:\n%s", a)
	}
}

func TestLogNilSafe(t *testing.T) {
	var l *Log
	l.Record(fastEvent(0))
	if l.Window(0) != nil || l.Stats().Submitted != 0 {
		t.Fatal("nil log must be inert")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf, 0); err != nil || buf.Len() != 0 {
		t.Fatal("nil log JSONL must be empty")
	}
	l.WriteText(&buf, 0)
}

func TestOutcomeIsError(t *testing.T) {
	for o, want := range map[Outcome]bool{
		OutcomeCompleted: false, OutcomeCanceled: false,
		OutcomeDegraded: true, OutcomeShed: true, OutcomeDeadline: true, OutcomeFailed: true,
	} {
		if got := o.IsError(); got != want {
			t.Errorf("%s.IsError() = %v, want %v", o, got, want)
		}
	}
}
