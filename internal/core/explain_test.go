package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"doppiodb/internal/config"
	"doppiodb/internal/explain"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/fpga"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// smallDeployment is a device too small for the hybrid query QH as a whole
// but large enough for its `(Strasse|Str\.)` prefix — the split the paper's
// §5.4 hybrid path takes.
func smallDeployment() *fpga.Deployment {
	d := fpga.DefaultDeployment()
	d.Limits = config.Limits{MaxStates: 8, MaxChars: 24}
	return &d
}

func newExplainSystem(t *testing.T, dep *fpga.Deployment, in *faults.Injector, aud *explain.Auditor) *System {
	t.Helper()
	s, err := NewSystem(Options{
		RegionBytes: 1 << 30,
		Deployment:  dep,
		Telemetry:   telemetry.NewRegistry(),
		Recorder:    flightrec.New(256),
		Faults:      in,
		Auditor:     aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExplainCostPlanShapeHybrid(t *testing.T) {
	// Golden plan shape: on the constrained device the hybrid query QH must
	// yield exactly three candidates — infeasible fpga, feasible hybrid with
	// the documented split, feasible software — with hybrid chosen.
	s := newExplainSystem(t, smallDeployment(), faults.New(faults.Options{}), explain.NewAuditor(explain.Options{}))
	rec, err := s.ExplainCost(workload.QH, 100_000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 3 {
		t.Fatalf("candidates = %d, want 3", len(rec.Candidates))
	}
	for i, want := range []string{"fpga", "hybrid", "software"} {
		if rec.Candidates[i].Placement != want {
			t.Errorf("candidate[%d] = %q, want %q", i, rec.Candidates[i].Placement, want)
		}
	}
	fpgaC := rec.Candidate("fpga")
	if fpgaC.Feasible {
		t.Errorf("fpga candidate feasible on an 8-state device: %+v", fpgaC)
	}
	if !strings.Contains(fpgaC.Reason, "deployed engines hold 8/24") {
		t.Errorf("fpga reason = %q", fpgaC.Reason)
	}
	hy := rec.Candidate("hybrid")
	if !hy.Feasible || hy.HWPart == "" || hy.SWPart == "" {
		t.Fatalf("hybrid candidate = %+v, want feasible with a split", hy)
	}
	if !strings.Contains(hy.HWPart, "Strasse") || !strings.Contains(hy.SWPart, "delivery") {
		t.Errorf("split = hw %q / sw %q, want prefix filter on the FPGA and the delivery tail on the CPU",
			hy.HWPart, hy.SWPart)
	}
	if hy.Cost.ScanBytes <= 0 || hy.Cost.QPITransferNS <= 0 || hy.Cost.EngineBusyNS <= 0 || hy.Cost.TotalNS <= 0 {
		t.Errorf("hybrid cost not itemized: %+v", hy.Cost)
	}
	sw := rec.Candidate("software")
	if !sw.Feasible || sw.Cost.SoftwareNS <= 0 {
		t.Errorf("software candidate = %+v", sw)
	}
	if rec.Chosen != "hybrid" {
		t.Fatalf("chosen = %q (%s), want hybrid", rec.Chosen, rec.Reason)
	}
	if rec.Executed || rec.Actual != nil {
		t.Error("plan-only record marked executed")
	}
	if rec.States <= 8 && rec.Chars <= 24 {
		t.Errorf("states=%d chars=%d, expected the whole expression to exceed the 8/24 device",
			rec.States, rec.Chars)
	}
}

// execQH runs QH once on a fresh constrained system and returns the decision
// record's JSON rendering.
func execQH(t *testing.T) ([]byte, *Result) {
	t.Helper()
	s := newExplainSystem(t, smallDeployment(), faults.New(faults.Options{}), explain.NewAuditor(explain.Options{}))
	tbl, _ := loadTable(t, s, 20_000, workload.HitQH, 0.2)
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, workload.QH, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision == nil {
		t.Fatal("Exec returned no decision record")
	}
	var buf bytes.Buffer
	if err := res.Decision.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestDecisionRecordDeterministic(t *testing.T) {
	// The record is built entirely from simulated quantities: two fresh
	// single-client runs of the same query must produce bit-identical
	// records, predicted and actual sides both.
	a, resA := execQH(t)
	b, _ := execQH(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated runs produced different decision records:\n%s\n---\n%s", a, b)
	}
	rec := resA.Decision
	if !rec.Executed || rec.Actual == nil {
		t.Fatal("executed record carries no actuals")
	}
	if rec.Chosen != "hybrid" {
		t.Fatalf("chosen = %q, want hybrid", rec.Chosen)
	}
	// The actual side must carry the hardware terms from the runtime's
	// completion accounting and the hybrid tail's software time.
	act := rec.Actual
	if act.ScanBytes <= 0 || act.QPITransferNS <= 0 || act.EngineBusyNS <= 0 || act.TotalNS <= 0 {
		t.Errorf("actuals not itemized: %+v", act)
	}
	if act.SoftwareNS <= 0 {
		t.Errorf("hybrid run recorded no software tail time: %+v", act)
	}
	if len(rec.Errors) == 0 {
		t.Fatal("no per-term errors computed")
	}
	if _, ok := rec.TermError(explain.TermEngineBusy); !ok {
		t.Error("no engine_busy prediction error")
	}
}

func TestExplainActualsMatchResult(t *testing.T) {
	_, res := execQH(t)
	rec := res.Decision
	if got, want := rec.Actual.ScanBytes, res.HW.Bytes; got != want {
		t.Errorf("actual scan_bytes = %d, want HW.Bytes %d", got, want)
	}
	if got, want := rec.Actual.QPITransferNS, ns(res.HW.LinkBusy); got != want {
		t.Errorf("actual qpi_transfer = %dns, want LinkBusy %dns", got, want)
	}
	if got, want := rec.Actual.EngineBusyNS, ns(res.HW.Time); got != want {
		t.Errorf("actual engine_busy = %dns, want HW.Time %dns", got, want)
	}
	if got, want := rec.Actual.QueueDelayNS, ns(res.HW.QueueWait); got != want {
		t.Errorf("actual queue_delay = %dns, want QueueWait %dns", got, want)
	}
	if got, want := rec.Actual.TotalNS, ns(res.Total()); got != want {
		t.Errorf("actual total = %dns, want %dns", got, want)
	}
}

func TestQPIDegradationTripsDriftAlarm(t *testing.T) {
	// Quartering the QPI bandwidth makes every transfer 4× slower than the
	// model predicts; after a handful of queries the rolling engine-busy
	// error must leave the band and latch the drift alarm.
	tel := telemetry.NewRegistry()
	// A large window: the drift event must survive the per-job events the
	// remaining queries record after the alarm latches.
	rec := flightrec.New(16_384)
	aud := explain.NewAuditor(explain.Options{Window: 32, BandPct: 25, MinSamples: 4})
	in := faults.New(faults.Options{QPIFactor: 0.25})
	s, err := NewSystem(Options{
		RegionBytes: 1 << 30,
		Telemetry:   tel,
		Recorder:    rec,
		Faults:      in,
		Auditor:     aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := loadTable(t, s, 50_000, workload.HitQ2, 0.2)
	col, _ := tbl.Column("address_string")
	for i := 0; i < 10; i++ {
		if _, err := s.Exec(context.Background(), col.Strs, workload.Q2, token.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	rep := aud.Stats()
	ts, ok := rep.Term(explain.TermEngineBusy)
	if !ok {
		t.Fatal("no engine_busy statistics after 10 queries")
	}
	if !ts.Alarm {
		t.Fatalf("drift alarm did not latch: mean=%.1f%% bias=%.1f%% n=%d band=%.0f%%",
			ts.MeanRelErrPct, ts.P95RelErrPct, ts.Samples, rep.BandPct)
	}
	if ts.BiasPct >= 0 {
		t.Errorf("bias = %+.1f%%, want negative (model under-predicts on a slow link)", ts.BiasPct)
	}
	if got := tel.Counter("calib.drift_alarms").Value(); got < 1 {
		t.Errorf("calib.drift_alarms = %d, want >= 1", got)
	}
	found := false
	for _, e := range rec.Window() {
		if e.Type == flightrec.EvCalibDrift {
			found = true
		}
	}
	if !found {
		t.Error("no calib-drift event in the flight recorder")
	}
}

func TestAdviseOffloadMatchesExplain(t *testing.T) {
	s := newExplainSystem(t, nil, faults.New(faults.Options{}), explain.NewAuditor(explain.Options{}))
	for _, pat := range []string{workload.Q1Regex, workload.Q2, workload.QH} {
		rec, err := s.ExplainCost(pat, 1_000_000, 64)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		est, err := s.EstimateCost(pat, 1_000_000, 64, s.QueuedBytes())
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if want := est.Placement != PlaceSoftware; rec.Offloads() != want {
			t.Errorf("%s: record offloads=%v, cost model placed it %v", pat, rec.Offloads(), est.Placement)
		}
	}
}
