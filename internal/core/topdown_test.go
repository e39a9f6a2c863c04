package core

import (
	"context"
	"testing"

	"doppiodb/internal/bat"
	"doppiodb/internal/fpga"
	"doppiodb/internal/token"
	"doppiodb/internal/topdown"
	"doppiodb/internal/workload"
)

// topdownSystem boots a fresh system with the given engine count, loads a
// QH-hit address table and runs the paper's hybrid query once, returning
// the system (for reruns) and the result.
func topdownSystem(t *testing.T, engines, rows int) (*System, *Result) {
	t.Helper()
	dep := fpga.DefaultDeployment()
	dep.Engines = engines
	s, err := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	data, _ := workload.NewGenerator(7, 64).Table(rows, workload.HitQH, 0.02)
	tbl, err := s.DB.LoadAddressTable("address_table", data)
	if err != nil {
		t.Fatal(err)
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(context.Background(), col.Strs, workload.QH, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func rerun(t *testing.T, s *System) *Result {
	t.Helper()
	tbl, err := s.DB.Table("address_table")
	if err != nil {
		t.Fatal(err)
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(context.Background(), col.Strs, workload.QH, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The golden verdicts of §7.3 read through the analyzer: a lone engine
// cannot saturate QPI, so the hybrid query is compute-bound; four engines
// contending for the link flip the same query memory-bound.
func TestTopdownGoldenVerdicts(t *testing.T) {
	_, one := topdownSystem(t, 1, 30_000)
	if one.Topdown == nil {
		t.Fatal("no attribution on hardware query")
	}
	if one.Topdown.Verdict != topdown.ComputeBound {
		t.Errorf("1 engine: verdict %q, want %q (%+v)", one.Topdown.Verdict, topdown.ComputeBound, one.Topdown)
	}
	if !one.Topdown.Buckets.Conserved() {
		t.Errorf("1 engine: query buckets not conserved: %+v", one.Topdown.Buckets)
	}

	_, four := topdownSystem(t, 4, 30_000)
	if four.Topdown == nil {
		t.Fatal("no attribution on hardware query")
	}
	if four.Topdown.Verdict != topdown.MemoryBound {
		t.Errorf("4 engines: verdict %q, want %q (%+v)", four.Topdown.Verdict, topdown.MemoryBound, four.Topdown)
	}
	if four.Topdown.LinkBusyPct < 90 {
		t.Errorf("4 engines: link busy %.2f%%, want >= 90%% (saturated QPI)", four.Topdown.LinkBusyPct)
	}
}

// A cached-plan rerun skips config generation entirely: the attribution's
// config-gen bucket is exactly zero, while the cold run charged it.
func TestTopdownConfigBucketZeroOnCachedRerun(t *testing.T) {
	s, cold := topdownSystem(t, 2, 10_000)
	if cold.Topdown.ConfigGen <= 0 {
		t.Errorf("cold run config-gen = %v, want > 0", cold.Topdown.ConfigGen)
	}
	warm := rerun(t, s)
	if !warm.ConfigCached {
		t.Fatal("rerun did not hit the config cache")
	}
	if warm.Topdown.ConfigGen != 0 {
		t.Errorf("cached rerun config-gen = %v, want exactly 0", warm.Topdown.ConfigGen)
	}
	if warm.Topdown.Verdict == "" {
		t.Error("cached rerun lost its verdict")
	}
}

// Attributions are pure functions of simulated time: two fresh systems
// running the same query must produce bit-identical records.
func TestTopdownDeterministic(t *testing.T) {
	_, a := topdownSystem(t, 2, 10_000)
	_, b := topdownSystem(t, 2, 10_000)
	if *a.Topdown != *b.Topdown {
		t.Errorf("attributions differ:\n  a: %+v\n  b: %+v", *a.Topdown, *b.Topdown)
	}
}

// A query's HWStats is nothing but its jobs' completion records summed: a
// 4-engine Q2, then the same partitions replayed through the HAL by hand,
// must add up — traffic, buckets and the window covering the jobs — to
// exactly what Exec reported.
func TestTopdownHWStatsSumJobCompletions(t *testing.T) {
	dep := fpga.DefaultDeployment()
	dep.Engines = 4
	s, err := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	tbl, _ := loadTable(t, s, 30_000, workload.HitQ2, 0.2)
	col, _ := tbl.Column("address_string")
	ctx := context.Background()
	first := s.HAL.SimEpoch()
	res, err := s.Exec(ctx, col.Strs, workload.Q2, token.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cp, _, err := s.prepare(workload.Q2, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := bat.NewShorts(s.Region, col.Strs.Count())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.SetLen(col.Strs.Count()); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.submitPartitioned(ctx, cp.vec, col.Strs, out)
	if err != nil {
		t.Fatal(err)
	}
	replay := s.HAL.SimEpoch()
	if err := s.HAL.DispatchContext(ctx, jobs...); err != nil {
		t.Fatal(err)
	}
	want := HWStats{Jobs: len(jobs)}
	for _, j := range jobs {
		c, err := j.Await(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(c.JobLedger)
		if c.HWTime() > want.Time {
			want.Time = c.HWTime()
		}
	}
	// The replay ran one round later on the continuous timeline.
	want.Start -= replay - first
	want.Done -= replay - first
	if want.Jobs != 4 || res.HW != want {
		t.Errorf("HWStats = %+v\nsum of the %d job completions = %+v", res.HW, want.Jobs, want)
	}
}
