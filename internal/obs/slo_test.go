package obs

import (
	"bytes"
	"strings"
	"testing"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/telemetry"
)

// sloUnderTest builds a small engine: 99% availability (1% budget),
// burn threshold 2x, alert armed after 8 samples in the fast window.
func sloUnderTest() *SLO {
	return NewSLO(SLOOptions{
		Targets:       SLOTargets{AvailabilityPct: 99, LatencyP99NS: 1_000_000},
		FastWindowNS:  5_000_000_000,
		SlowWindowNS:  60_000_000_000,
		BurnThreshold: 2,
		MinSamples:    8,
	})
}

// The multi-window alert latches when both windows burn over threshold and
// the fast window has enough samples, and the transition lands in the
// flight recorder.
func TestSLOBurnAlertLatchesAndClears(t *testing.T) {
	s := sloUnderTest()
	reg := telemetry.NewRegistry()
	rec := flightrec.New(64)
	s.SetTelemetry(reg)
	s.SetRecorder(rec)

	// 7 errors among the first 7 events: 100% error rate but under
	// MinSamples — the alert must hold its fire.
	now := int64(0)
	for i := 0; i < 7; i++ {
		s.Observe(Event{SimNS: now, Outcome: OutcomeShed})
		now += 1000
	}
	if s.Alerting() {
		t.Fatal("alert fired under MinSamples")
	}
	// The 8th error crosses MinSamples with burn 100x on both windows.
	s.Observe(Event{SimNS: now, Outcome: OutcomeShed})
	if !s.Alerting() {
		t.Fatal("alert did not latch at 100% error rate past MinSamples")
	}
	rep := s.Report()
	if rep.AlertsFired != 1 || !rep.AlertActive {
		t.Fatalf("report: fired %d active %v, want 1/true", rep.AlertsFired, rep.AlertActive)
	}
	if rep.FastBurn < 50 || rep.SlowBurn < 50 {
		t.Fatalf("burn rates too low for 100%% errors: fast %.1f slow %.1f", rep.FastBurn, rep.SlowBurn)
	}
	if reg.Counter("slo.alerts_fired").Value() != 1 || reg.Gauge("slo.alert").Value() != 1 {
		t.Fatal("telemetry mirrors not set on latch")
	}
	var latch, clear int
	for _, ev := range rec.Window() {
		if ev.Type == flightrec.EvSLOBurn {
			if ev.Arg == 1 {
				latch++
			} else {
				clear++
			}
		}
	}
	if latch != 1 || clear != 0 {
		t.Fatalf("flightrec events: %d latch / %d clear, want 1/0", latch, clear)
	}

	// Flood the fast window with clean completions far enough ahead that
	// the error slots expire from it: the alert must clear (the slow
	// window still remembers, but the AND condition breaks).
	now += 20_000_000_000 // +20 s simulated: past the 5 s fast window
	for i := 0; i < 50; i++ {
		s.Observe(Event{SimNS: now, Outcome: OutcomeCompleted, Placement: "fpga", TotalNS: 1000})
		now += 1000
	}
	if s.Alerting() {
		t.Fatal("alert did not clear after the fast window went clean")
	}
	clear = 0
	for _, ev := range rec.Window() {
		if ev.Type == flightrec.EvSLOBurn && ev.Arg == 0 {
			clear++
		}
	}
	if clear != 1 {
		t.Fatalf("clear events: got %d, want 1", clear)
	}
	if reg.Gauge("slo.alert").Value() != 0 {
		t.Fatal("slo.alert gauge not cleared")
	}
}

// A clean run never alerts, reports per-class latency SLIs, and judges
// them against the p99 objective.
func TestSLOCleanRunSilent(t *testing.T) {
	s := sloUnderTest()
	for i := 0; i < 100; i++ {
		s.Observe(Event{SimNS: int64(i * 1000), Outcome: OutcomeCompleted,
			Placement: "fpga", TotalNS: 250_000})
	}
	if s.Alerting() {
		t.Fatal("clean run alerted")
	}
	rep := s.Report()
	if rep.AlertsFired != 0 || rep.Errors != 0 || rep.Submitted != 100 {
		t.Fatalf("clean report wrong: %+v", rep)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "fpga" {
		t.Fatalf("classes: %+v", rep.Classes)
	}
	c := rep.Classes[0]
	// All samples are 250µs; log₂ buckets bound the estimate by 2x.
	if c.P99NS < 250_000/2 || c.P99NS > 500_000 {
		t.Fatalf("p99 estimate %d outside a factor-2 of 250000", c.P99NS)
	}
	if !c.LatencyOK {
		t.Fatalf("250µs p99 judged against a 1ms objective must be ok: %+v", c)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"alert: quiet", "fpga", "availability 99.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

// Shed queries count against availability but not latency: they never had
// a service time.
func TestSLOShedExcludedFromLatency(t *testing.T) {
	s := sloUnderTest()
	for i := 0; i < 10; i++ {
		s.Observe(Event{SimNS: int64(i), Outcome: OutcomeShed})
	}
	rep := s.Report()
	if rep.Errors != 10 {
		t.Fatalf("errors: got %d, want 10", rep.Errors)
	}
	if len(rep.Classes) != 0 {
		t.Fatalf("shed-only run must have no latency classes: %+v", rep.Classes)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Observe(Event{})
	if s.Alerting() {
		t.Fatal("nil SLO alerting")
	}
	if got := s.Targets().AvailabilityPct; got != 99 {
		t.Fatalf("nil targets: got %v", got)
	}
	if rep := s.Report(); rep.Submitted != 0 {
		t.Fatalf("nil report: %+v", rep)
	}
}

// Window edges: a slot's last instant (k·width−1), its successor's first
// (k·width), and the instant one full window later that recycles the same
// ring slot, on both windows (fast slots are 100 wide, slow 1000). The burn
// rates are pinned to the values the engine reported before its
// availability counters became windowed histograms.
func TestSLOWindowEdges(t *testing.T) {
	s := NewSLO(SLOOptions{
		Targets:      SLOTargets{AvailabilityPct: 99},
		FastWindowNS: 1600,
		SlowWindowNS: 16000,
	})
	steps := []struct {
		now        int64
		err        bool
		fast, slow float64
	}{
		{299, true, 99.99999999999991, 99.99999999999991},
		{300, false, 49.99999999999996, 49.99999999999996},
		{300, false, 33.3333333333333, 33.3333333333333},
		{1799, false, 24.99999999999998, 24.99999999999998},
		{1800, true, 24.99999999999998, 39.999999999999964},
		{1899, false, 19.999999999999982, 33.3333333333333},
		{1900, false, 24.99999999999998, 28.571428571428545},
		{2999, true, 39.999999999999964, 37.499999999999964},
		{3000, false, 33.3333333333333, 33.3333333333333},
		{3400, false, 24.99999999999998, 29.99999999999997},
		{15999, false, 0, 27.272727272727245},
		{16000, true, 49.99999999999996, 33.3333333333333},
		{18999, false, 0, 19.999999999999982},
		{19000, false, 0, 24.99999999999998},
		{35000, false, 0, 0},
	}
	for i, st := range steps {
		out := OutcomeCompleted
		if st.err {
			out = OutcomeShed
		}
		s.Observe(Event{SimNS: st.now, Outcome: out, Placement: "fpga", TotalNS: 1000})
		if rep := s.Report(); rep.FastBurn != st.fast || rep.SlowBurn != st.slow {
			t.Errorf("step %d (t=%d): burn fast %v slow %v, want %v / %v",
				i, st.now, rep.FastBurn, rep.SlowBurn, st.fast, st.slow)
		}
	}
}
