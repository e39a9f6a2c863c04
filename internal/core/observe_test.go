package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"doppiodb/internal/hal"
	"doppiodb/internal/obs"
	"doppiodb/internal/sim"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// newObservedSystem boots a system with an observer that keeps every event
// (SampleEvery 1), not one in sixteen.
func newObservedSystem(t *testing.T) (*System, *obs.Observer) {
	t.Helper()
	o := obs.New(obs.Options{Log: obs.LogOptions{SampleEvery: 1}})
	s, err := NewSystem(Options{RegionBytes: 1 << 30, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, o
}

// A completed query must land in the wide-event log with its placement,
// result sizes, phase breakdown, and simulated timings filled in.
func TestObserveCompletedQuery(t *testing.T) {
	s, o := newObservedSystem(t)
	tbl, hits := loadTable(t, s, 5_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")
	ctx := obs.WithQueryInfo(context.Background(), "s1", "7")
	res, err := s.Exec(ctx, col.Strs, workload.Q1Regex, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := o.Log.Window(0)
	if len(evs) != 1 {
		t.Fatalf("events: got %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Outcome != obs.OutcomeCompleted || ev.Placement != "fpga" {
		t.Fatalf("outcome/placement: %s/%s", ev.Outcome, ev.Placement)
	}
	if ev.Session != "s1" || ev.Query != "7" {
		t.Fatalf("session identity not threaded: %q#%q", ev.Session, ev.Query)
	}
	if ev.Pattern != workload.Q1Regex || ev.Rows != 5_000 || ev.Matches != hits {
		t.Fatalf("pattern/rows/matches: %q %d %d, want %q 5000 %d",
			ev.Pattern, ev.Rows, ev.Matches, workload.Q1Regex, hits)
	}
	if ev.Bytes <= 0 || ev.Jobs < 1 {
		t.Fatalf("bytes/jobs: %d/%d", ev.Bytes, ev.Jobs)
	}
	if ev.TotalNS != int64(res.Total()/sim.Nanosecond) {
		t.Fatalf("total: %d, want %d", ev.TotalNS, int64(res.Total()/sim.Nanosecond))
	}
	if len(ev.Phases) == 0 || ev.Phases[PhaseHardware] <= 0 {
		t.Fatalf("phase breakdown missing: %+v", ev.Phases)
	}
	if ev.SimNS <= 0 {
		t.Fatalf("no simulated completion timestamp: %+v", ev)
	}
	// A clean single query must leave the SLO engine silent.
	if o.Alerting() {
		t.Fatal("clean query latched the burn alert")
	}
	rep := o.SLO.Report()
	if rep.Errors != 0 || rep.Submitted != 1 {
		t.Fatalf("SLO totals: %+v", rep)
	}
}

// Shed, deadline-refused, and canceled queries must be classified into
// their own outcomes, and only the first two count as SLI errors.
func TestObserveErrorOutcomes(t *testing.T) {
	s, o := newObservedSystem(t)
	tbl, _ := loadTable(t, s, 5_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")

	// Admission cap of one byte: the dispatch sheds immediately.
	s.HAL.SetAdmission(hal.AdmissionLimits{MaxBytes: 1, Policy: hal.PolicyShed})
	if _, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err == nil {
		t.Fatal("over-cap exec did not error")
	}
	s.HAL.SetAdmission(hal.AdmissionLimits{})

	// A one-nanosecond budget: the ETA check refuses before dispatch.
	ctx := hal.WithBudget(context.Background(), sim.Nanosecond)
	if _, err := s.Exec(ctx, col.Strs, workload.Q1Regex, token.Options{}); err == nil {
		t.Fatal("impossible budget did not error")
	}

	// Cancel while queued behind a paused device.
	s.HAL.Pause()
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec(cctx, col.Strs, workload.Q1Regex, token.Options{})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueuedBytes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	s.HAL.Resume()

	want := map[obs.Outcome]int{}
	for _, ev := range o.Log.Window(0) {
		want[ev.Outcome]++
		if ev.Outcome != obs.OutcomeCompleted && ev.Cause == "" {
			t.Fatalf("error event without a cause: %+v", ev)
		}
	}
	if want[obs.OutcomeShed] != 1 || want[obs.OutcomeDeadline] != 1 || want[obs.OutcomeCanceled] != 1 {
		t.Fatalf("outcome split: %+v, want one shed, one deadline, one canceled", want)
	}
	// Canceled is the caller's doing, not the system's error budget.
	if rep := o.SLO.Report(); rep.Errors != 2 {
		t.Fatalf("SLI errors: got %d, want 2 (shed + deadline)", rep.Errors)
	}
}

// Two fresh systems running the identical workload export byte-identical
// JSONL: the wide events carry no wall-clock contamination.
func TestObserveJSONLBitIdentical(t *testing.T) {
	run := func() string {
		o := obs.New(obs.Options{Log: obs.LogOptions{SampleEvery: 1}})
		s, err := NewSystem(Options{RegionBytes: 1 << 30, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rows, _ := workload.NewGenerator(7, 64).Table(3_000, workload.HitQ1, 0.2)
		tbl, err := s.DB.LoadAddressTable("address_table", rows)
		if err != nil {
			t.Fatal(err)
		}
		col, _ := tbl.Column("address_string")
		for i := 0; i < 5; i++ {
			if _, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := o.Log.WriteJSONL(&buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("no events exported")
	}
	if a != b {
		t.Fatalf("wide-event JSONL differs across identical runs:\n%s\nvs\n%s", a, b)
	}
}

// Two Systems booted with no sinks in their Options own theirs: a hardware
// query on one leaves the other's registry, query log, auditor and flight
// recorder untouched.
func TestSystemsShareNoSinks(t *testing.T) {
	boot := func() *System {
		s, err := NewSystem(Options{RegionBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := boot(), boot()
	if a.Tel == b.Tel || a.Rec == b.Rec || a.Audit == b.Audit || a.Obs == b.Obs {
		t.Fatal("zero-value sink options yielded a shared sink")
	}
	tbl, _ := loadTable(t, a, 5_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")
	if _, err := a.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err != nil {
		t.Fatal(err)
	}
	seen := func(s *System) [4]int64 {
		return [4]int64{
			s.Tel.Snapshot().Counter("core.queries"),
			int64(s.Obs.Log.Stats().Submitted),
			s.Audit.Stats().Observed,
			int64(s.Rec.Len()),
		}
	}
	for i, v := range seen(a) {
		if v == 0 {
			t.Errorf("sink %d of the System that ran the query saw nothing", i)
		}
	}
	if got := seen(b); got != [4]int64{} {
		t.Errorf("idle System's sinks saw the other's query: queries/log/auditor/recorder = %v", got)
	}
}
