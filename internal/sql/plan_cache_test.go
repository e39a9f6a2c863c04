package sql

import (
	"reflect"
	"strings"
	"testing"

	"doppiodb/internal/core"
	"doppiodb/internal/workload"
)

// The plan-cache gates: a repeated statement hits the cache (leaf stamped
// cache=hit, plan.cache_hits counter moves), an append to a base table
// invalidates via the version in the key, and on the hardware path a hit
// reuses the recorded placement decision and — together with the core
// config cache — spends zero simulated config-generation time.

func leafLine(t *testing.T, res *Result) string {
	t.Helper()
	lines := planLines(t, res)
	return lines[len(lines)-1]
}

// cacheDelta reads the plan-cache counters relative to a baseline taken
// after the engine's set-up queries.
func cacheDelta(e *Engine, base map[string]int64) (hits, misses int64) {
	snap := e.Tel.Snapshot()
	return snap.Counter("plan.cache_hits") - base["plan.cache_hits"],
		snap.Counter("plan.cache_misses") - base["plan.cache_misses"]
}

func TestPlanCacheHitOnRepeat(t *testing.T) {
	e, _ := addressEngine(t, 2_000, workload.HitQ1, 0.2)
	base := e.Tel.Snapshot().Counters
	const q = `SELECT count(*) FROM address_table WHERE address_string LIKE '%Strasse%'`
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(leafLine(t, first), "cache=miss") {
		t.Errorf("first run leaf: %s", leafLine(t, first))
	}
	if !strings.Contains(leafLine(t, second), "cache=hit") {
		t.Errorf("second run leaf: %s", leafLine(t, second))
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Errorf("cached plan changed the answer: %v vs %v", first.Rows, second.Rows)
	}
	if hits, misses := cacheDelta(e, base); hits != 1 || misses != 1 {
		t.Errorf("counters: hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestPlanCacheInvalidatedByAppend(t *testing.T) {
	e, _ := addressEngine(t, 1_000, workload.HitQ1, 0.2)
	base := e.Tel.Snapshot().Counters
	const q = `SELECT count(*) FROM address_table WHERE address_string LIKE '%Strasse%'`
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.DB.Table("address_table")
	if err != nil {
		t.Fatal(err)
	}
	// The append bumps the table version, which is folded into the key:
	// the stale entry can never be served again.
	if err := tbl.AppendRow(int32(tbl.Rows()), "Bahnhofstrasse 1, 8001 Zurich"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(leafLine(t, res), "cache=miss") {
		t.Errorf("post-append leaf: %s", leafLine(t, res))
	}
	if hits, misses := cacheDelta(e, base); hits != 1 || misses != 2 {
		t.Errorf("counters: hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestPlanCacheReusesPlacementAndSkipsCompile(t *testing.T) {
	s, err := core.NewSystem(core.Options{RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := workload.NewGenerator(55, 64).Table(20_000, workload.HitQ2, 0.2)
	if _, err := s.DB.LoadAddressTable("address_table", rows); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s.DB)
	e.Advisor = s
	base := e.Tel.Snapshot().Counters
	const q = `SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, '(Strasse|Str\.).*(8[0-9]{4})')`

	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.FastPath != "regexp->udf" || first.UDF == nil {
		t.Fatalf("first run did not offload: path=%q", first.FastPath)
	}
	if first.Decision.PlanCacheHit {
		t.Error("first run marked as plan-cache hit")
	}
	if first.UDF.Breakdown[core.PhaseConfigGen] <= 0 {
		t.Error("first run spent no config-gen time")
	}

	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Errorf("cached plan changed the answer: %v vs %v", first.Rows, second.Rows)
	}
	if second.Decision == nil || !second.Decision.PlanCacheHit {
		t.Error("second run decision not marked plan-cache hit")
	}
	if second.Decision.Chosen != first.Decision.Chosen {
		t.Errorf("cached placement %q != original %q",
			second.Decision.Chosen, first.Decision.Chosen)
	}
	// The zero-compile gate: the plan cache skipped re-estimation and the
	// core config cache skipped Glushkov construction + the 512-bit
	// encode, so the config-gen phase costs nothing the second time.
	if got := second.UDF.Breakdown[core.PhaseConfigGen]; got != 0 {
		t.Errorf("second run config-gen = %v s, want 0 (cached)", got)
	}
	if !second.Decision.ConfigCached {
		t.Error("second run decision not marked config-cached")
	}
	snap := e.Tel.Snapshot()
	if hits := snap.Counter("plan.cache_hits") - base["plan.cache_hits"]; hits < 1 {
		t.Errorf("plan.cache_hits delta = %d", hits)
	}
	if hits := snap.Counter("core.config_cache_hits") - base["core.config_cache_hits"]; hits < 1 {
		t.Errorf("core.config_cache_hits delta = %d", hits)
	}
}
