package telemetry_test

import (
	"context"
	"os"
	"reflect"
	"testing"

	"doppiodb/internal/core"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// Example shows the two halves of the telemetry layer working together:
// registry metrics for what happened how often, and a span tree for where
// one query's time went. The spans carry only simulated durations here so
// the output is deterministic.
func Example() {
	reg := telemetry.NewRegistry()
	reg.Counter("engine.jobs").Add(4)
	reg.Gauge("pu.utilization_pct").Set(19)

	query := telemetry.NewSpan("regexp_fpga")
	query.AddSim(300 * sim.Microsecond)
	hw := query.NewChild("hardware")
	hw.AddSim(240 * sim.Microsecond)
	qpi := hw.NewChild("qpi-transfer")
	qpi.AddSim(230 * sim.Microsecond)
	qpi.SetAttr("bytes", 1_560_320)
	post := query.NewChild("cpu-post-process")
	post.AddSim(55 * sim.Microsecond)
	post.SetAttr("rows", 4046)

	reg.WriteText(os.Stdout)
	query.WriteTree(os.Stdout)
	// Output:
	// engine.jobs 4
	// pu.utilization_pct 19
	// regexp_fpga sim=300.000µs (300000ns)
	// ├─ hardware sim=240.000µs (240000ns)
	// │  └─ qpi-transfer [bytes=1560320] sim=230.000µs (230000ns)
	// └─ cpu-post-process [rows=4046] sim=55.000µs (55000ns)
}

// oversized exceeds the default device's 16-state/32-character capacity, so
// Exec splits it at the second top-level `.*`: the Q2 prefix runs on the
// FPGA as a pre-filter and the alternation tail is post-processed on the
// CPU (§7.8).
const oversized = workload.Q2 + `.*(Nord|Sued|Ost|West|Mitte|Zentrum|Altstadt|Neustadt)`

// TestHybridQueryTrace instruments a real hybrid query end to end and
// asserts the shape of the resulting span tree plus the hardware counters
// the run must have produced.
func TestHybridQueryTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := core.NewSystem(core.Options{RegionBytes: 1 << 30, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rows, hits := workload.NewGenerator(1, workload.DefaultStrLen).Table(5000, workload.HitQ2, 0.2)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		t.Fatal(err)
	}

	res, err := s.Exec(context.Background(), col.Strs, oversized, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hybrid {
		t.Fatalf("pattern %q should have triggered hybrid execution", oversized)
	}

	want := []string{
		"regexp_fpga", "plan-split", "bat-scan", "hudf-software",
		"config-gen", "job-submit", "hardware", "qpi-transfer",
		"engine-dispatch", "pu-match", "collect", "cpu-post-process",
	}
	if got := res.Trace.Path(); !reflect.DeepEqual(got, want) {
		t.Errorf("span tree shape:\n got %v\nwant %v", got, want)
	}
	if res.Trace.Sim() != res.Total() {
		t.Errorf("root sim %v != simulated response %v", res.Trace.Sim(), res.Total())
	}
	qpi := res.Trace.Find("qpi-transfer")
	if bytes := qpi.Attrs()["bytes"]; bytes <= 0 {
		t.Errorf("qpi-transfer moved %d bytes, want > 0", bytes)
	}
	if qpi.Sim() <= 0 {
		t.Error("qpi-transfer has no simulated duration")
	}
	if rows := res.Trace.Find("cpu-post-process").Attrs()["rows"]; rows != int64(hits) {
		t.Errorf("post-processed %d rows, want the %d pre-filter hits", rows, hits)
	}

	snap := reg.Snapshot()
	for _, c := range []string{"core.queries", "core.hybrid_queries", "qpi.bytes", "pu.cycles", "hal.jobs", "hal.dsm.strings"} {
		if snap.Counter(c) <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, snap.Counter(c))
		}
	}
	if util := snap.Gauge("pu.utilization_pct"); util <= 0 {
		t.Errorf("pu.utilization_pct = %d, want > 0", util)
	}
	if snap.Counter("hal.dsm.strings") != int64(len(rows)) {
		t.Errorf("DSM saw %d strings, want %d", snap.Counter("hal.dsm.strings"), len(rows))
	}
}

// TestIsolatedRegistry confirms that a System bound to its own registry does
// not leak metrics into the registry of a System booted beside it.
func TestIsolatedRegistry(t *testing.T) {
	other, err := core.NewSystem(core.Options{RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	reg := telemetry.NewRegistry()
	s, err := core.NewSystem(core.Options{RegionBytes: 1 << 30, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := workload.NewGenerator(2, workload.DefaultStrLen).Table(500, workload.HitQ2, 0.2)
	tbl, err := s.DB.LoadAddressTable("t", rows)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := tbl.Column("address_string")
	if _, err := s.Exec(context.Background(), col.Strs, workload.Q2, token.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("core.queries"); got != 1 {
		t.Errorf("isolated registry core.queries = %d, want 1", got)
	}
	if leaked := other.Tel.Snapshot().Counter("core.queries"); leaked != 0 {
		t.Errorf("neighbouring System's registry saw %d core.queries, want 0", leaked)
	}
}
