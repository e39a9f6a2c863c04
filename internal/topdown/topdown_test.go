package topdown

import (
	"strings"
	"testing"

	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

func TestAnalyzeVerdicts(t *testing.T) {
	hw := Buckets{Busy: us(90), StallInput: us(8), StallSwitch: us(2)}
	hw.Wall = hw.Sum()
	stalled := Buckets{Busy: us(20), StallInput: us(70), StallSwitch: us(6), StallOutput: us(4)}
	stalled.Wall = stalled.Sum()
	cases := []struct {
		name      string
		placement string
		degraded  bool
		linkBusy  sim.Time
		a         Attribution
		want      Verdict
	}{
		{"compute", "fpga", false, us(80), Attribution{Hardware: us(100), Total: us(120),
			Software: us(20), Buckets: hw}, ComputeBound},
		{"memory-by-stalls", "fpga", false, us(80), Attribution{Hardware: us(100), Total: us(120),
			Software: us(20), Buckets: stalled}, MemoryBound},
		{"memory-by-saturation", "fpga", false, us(98), Attribution{Hardware: us(100), Total: us(120),
			Software: us(20), Buckets: hw}, MemoryBound},
		{"queue", "fpga", false, 0, Attribution{Hardware: us(100), Queue: us(500),
			Total: us(620), Software: us(20), Buckets: hw}, QueueBound},
		{"config", "fpga", false, 0, Attribution{Hardware: us(100), ConfigGen: us(150),
			Total: us(270), Software: us(20), Buckets: hw}, ConfigBound},
		{"software-placement", "software", false, 0, Attribution{Software: us(300),
			Total: us(300)}, SoftwareBound},
		{"software-dominant", "hybrid", false, 0, Attribution{Hardware: us(100),
			Software: us(400), Total: us(520), Buckets: hw}, SoftwareBound},
		{"degraded", "fpga", true, 0, Attribution{Hardware: us(100),
			Software: us(50), Total: us(170), Buckets: hw}, SoftwareBound},
	}
	for _, tc := range cases {
		got := Analyze(tc.placement, tc.degraded, tc.linkBusy, tc.a)
		if got.Verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, got.Verdict, tc.want, got)
		}
	}
}

func TestAttributionLineNamesVerdict(t *testing.T) {
	a := Analyze("software", false, 0, Attribution{Software: us(10), Total: us(10)})
	if !strings.Contains(a.Line(), "software-bound") {
		t.Errorf("Line() = %q", a.Line())
	}
}

// Pct must stay pure integer math: basis-point resolution, no float drift.
func TestPct(t *testing.T) {
	if got := Pct(us(9063), us(10000)); got != 90.63 {
		t.Errorf("Pct = %v, want 90.63", got)
	}
	if got := Pct(us(1), 0); got != 0 {
		t.Errorf("Pct with zero whole = %v", got)
	}
}

// The counter round-trip: what the HAL emits per round, SummaryFromMetrics
// reads back with the conservation check still exact.
func TestSummaryFromMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := Buckets{Busy: us(50), StallInput: us(30), StallSwitch: us(10),
		StallOutput: us(5), Config: us(3), Idle: us(2)}
	b.Wall = b.Sum()
	reg.Counter("topdown.busy_ps").Add(int64(b.Busy))
	reg.Counter("topdown.stall_input_ps").Add(int64(b.StallInput))
	reg.Counter("topdown.stall_switch_ps").Add(int64(b.StallSwitch))
	reg.Counter("topdown.stall_output_ps").Add(int64(b.StallOutput))
	reg.Counter("topdown.config_ps").Add(int64(b.Config))
	reg.Counter("topdown.idle_ps").Add(int64(b.Idle))
	reg.Counter("topdown.wall_ps").Add(int64(b.Wall))
	reg.Counter("topdown.link.busy_ps").Add(int64(us(95)))
	reg.Counter("topdown.link.arbitration_ps").Add(int64(us(5)))
	reg.Counter("topdown.link.idle_ps").Add(0)
	reg.Counter("topdown.link.wall_ps").Add(int64(us(100)))
	reg.Counter("topdown.rounds").Inc()
	reg.Counter("topdown.verdict.memory-bound").Inc()

	s := SummaryFromMetrics(reg.Snapshot())
	if s.Buckets != b {
		t.Errorf("buckets round-trip: %+v != %+v", s.Buckets, b)
	}
	if !s.Conserved {
		t.Error("round-trip lost conservation")
	}
	if s.Rounds != 1 || s.Verdicts["memory-bound"] != 1 {
		t.Errorf("rounds/verdicts wrong: %+v", s)
	}
	var sb strings.Builder
	s.WriteText(&sb)
	if !strings.Contains(sb.String(), "cycle conservation: exact") {
		t.Errorf("summary text:\n%s", sb.String())
	}
}

// A conservation violation must be loud, not rounded away.
func TestWriteTextFlagsViolation(t *testing.T) {
	rep := FabricReport{Engines: []EngineReport{{Engine: 0,
		Buckets: Buckets{Busy: us(10), Wall: us(11)}}}}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "VIOLATED") {
		t.Errorf("violation not flagged:\n%s", sb.String())
	}
}
