package sql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"doppiodb/internal/core"
	"doppiodb/internal/mdb"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/workload"
)

// The old-vs-new equivalence sweep: every paper query shape runs through
// both the retained pre-operator reference executor (legacy_test.go) and the
// physical-plan path, asserting bit-identical results and work accounting.
// Advisor-backed queries additionally compare the EXPLAIN decision's cost
// terms across two systems kept in lockstep.

// runLegacy parses and executes q on the reference inline executor.
func runLegacy(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%s): %v", q, err)
	}
	res, err := e.execLegacy(context.Background(), stmt, telemetry.StartSpan("query"))
	if err != nil {
		t.Fatalf("execLegacy(%s): %v", q, err)
	}
	return res
}

func assertEquivalent(t *testing.T, q string, legacy, modern *Result) {
	t.Helper()
	if !reflect.DeepEqual(legacy.Cols, modern.Cols) {
		t.Errorf("%s:\ncols legacy %v != new %v", q, legacy.Cols, modern.Cols)
	}
	if !reflect.DeepEqual(legacy.Rows, modern.Rows) {
		t.Errorf("%s:\nrows diverge\nlegacy: %v\nnew:    %v", q, legacy.Rows, modern.Rows)
	}
	if legacy.Work != modern.Work {
		t.Errorf("%s:\nwork legacy %+v != new %+v", q, legacy.Work, modern.Work)
	}
	if legacy.FastPath != modern.FastPath {
		t.Errorf("%s: fast path legacy %q != new %q", q, legacy.FastPath, modern.FastPath)
	}
}

func TestPlanEquivalenceSweepSoftware(t *testing.T) {
	for _, seed := range []int64{7, 21, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := mdb.New(nil)
			rows, _ := workload.NewGenerator(seed, 64).Table(4_000, workload.HitTable1, 0.2)
			if _, err := db.LoadAddressTable("address_table", rows); err != nil {
				t.Fatal(err)
			}
			e := NewEngine(db)
			queries := []string{
				`SELECT count(*) FROM address_table WHERE address_string LIKE '%Alan%'`,
				`SELECT count(*) FROM address_table WHERE address_string NOT LIKE '%Alan%'`,
				`SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, 'Alan.*Turing')`,
				`SELECT count(*) FROM address_table WHERE CONTAINS('Alan & Turing & Cheshire')`,
				`SELECT address_string FROM address_table WHERE address_string LIKE '%Turing%' ORDER BY address_string`,
				`SELECT address_string FROM address_table WHERE address_string LIKE '%Turing%' ORDER BY address_string DESC LIMIT 5`,
				`SELECT count(*) AS n, min(address_string) AS lo FROM address_table WHERE address_string LIKE '%e%' GROUP BY address_string HAVING n > 0 ORDER BY lo LIMIT 10`,
			}
			for _, q := range queries {
				legacy := runLegacy(t, e, q)
				modern, err := e.Query(q)
				if err != nil {
					t.Fatalf("Query(%s): %v", q, err)
				}
				assertEquivalent(t, q, legacy, modern)
			}
		})
	}
}

func TestPlanEquivalenceSweepTPCHQ13(t *testing.T) {
	for _, seed := range []int64{7, 21, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tp := workload.GenerateTPCH(seed, 0.01, 0.01)
			e := NewEngine(mdb.New(nil))
			loadTPCH(t, e, tp)
			legacy := runLegacy(t, e, tpchQ13SQL)
			modern, err := e.Query(tpchQ13SQL)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, "Q13", legacy, modern)
		})
	}
}

func TestPlanEquivalenceSweepHardware(t *testing.T) {
	// Two fresh systems stay in lockstep: the same query sequence runs on
	// each, so the simulated HAL state (queue depth, epoch) is identical
	// and the EXPLAIN actuals must agree term for term.
	newSys := func(t *testing.T, seed int64) *Engine {
		t.Helper()
		s, err := core.NewSystem(core.Options{RegionBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := workload.NewGenerator(seed, 64).Table(10_000, workload.HitQ2, 0.2)
		if _, err := s.DB.LoadAddressTable("address_table", rows); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s.DB)
		e.Advisor = s
		return e
	}
	queries := []string{
		`SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, '(Strasse|Str\.).*(8[0-9]{4})')`,
		`SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, 'Strasse')`,
		`SELECT count(*) FROM address_table WHERE REGEXP_FPGA('[0-9]+(USD|EUR|GBP)', address_string) <> 0`,
	}
	for _, seed := range []int64{7, 21, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eLegacy := newSys(t, seed)
			eNew := newSys(t, seed)
			for _, q := range queries {
				legacy := runLegacy(t, eLegacy, q)
				modern, err := eNew.Query(q)
				if err != nil {
					t.Fatalf("Query(%s): %v", q, err)
				}
				assertEquivalent(t, q, legacy, modern)
				ld, md := legacy.Decision, modern.Decision
				if (ld == nil) != (md == nil) {
					t.Fatalf("%s: decision presence legacy %v != new %v", q, ld != nil, md != nil)
				}
				if ld == nil {
					continue
				}
				if ld.Chosen != md.Chosen {
					t.Errorf("%s: chosen legacy %q != new %q", q, ld.Chosen, md.Chosen)
				}
				if (ld.Actual == nil) != (md.Actual == nil) {
					t.Fatalf("%s: actuals presence diverges", q)
				}
				if ld.Actual != nil && *ld.Actual != *md.Actual {
					t.Errorf("%s:\nactual cost terms diverge\nlegacy: %+v\nnew:    %+v",
						q, *ld.Actual, *md.Actual)
				}
			}
		})
	}
}

func TestNormalizedJoinPredicatePushdown(t *testing.T) {
	// The satellite fix: a nested/negated conjunction in the ON clause is
	// normalized (double-NOT elimination, De Morgan) before conjunct
	// splitting, so the equi-key and the pushable right-side residual
	// still surface. The legacy executor, which splits the raw tree,
	// cannot find the equality and errors out.
	db := mdb.New(nil)
	l, _ := db.CreateTable("l", mdb.ColSpec{Name: "k", Kind: mdb.KindInt})
	r, _ := db.CreateTable("r",
		mdb.ColSpec{Name: "rk", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "val", Kind: mdb.KindString})
	for i := 0; i < 4; i++ {
		l.AppendRow(i)
	}
	r.AppendRow(1, "one")
	r.AppendRow(2, "xxx")
	r.AppendRow(3, "three")
	e := NewEngine(db)

	queries := []string{
		// Double negation around the whole conjunction.
		`SELECT k, count(val) AS n FROM l LEFT OUTER JOIN r ON NOT NOT (k = rk AND val NOT LIKE '%x%') GROUP BY k ORDER BY k`,
		// De Morgan: NOT (NOT a OR NOT b) == a AND b.
		`SELECT k, count(val) AS n FROM l LEFT OUTER JOIN r ON NOT (NOT (k = rk) OR NOT (val NOT LIKE '%x%')) GROUP BY k ORDER BY k`,
	}
	wantN := map[int64]int64{0: 0, 1: 1, 2: 0, 3: 1}
	for _, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("%s: rows %v", q, res.Rows)
		}
		for _, row := range res.Rows {
			if wantN[row[0].(int64)] != row[1].(int64) {
				t.Errorf("%s: k=%v n=%v, want %v", q, row[0], row[1], wantN[row[0].(int64)])
			}
		}
		// The reference executor splits the raw tree and finds no equi-key.
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.execLegacy(context.Background(), stmt, telemetry.StartSpan("query")); err == nil {
			t.Errorf("legacy executor unexpectedly handled %s", q)
		}
	}
}

func TestNormalizePredicateRewrites(t *testing.T) {
	a := &BinaryExpr{Op: "=", Left: &ColumnRef{Column: "a"}, Right: &ColumnRef{Column: "b"}}
	like := &LikeExpr{Operand: &ColumnRef{Column: "c"}, Pattern: "%x%", Negated: true}
	cases := []struct {
		in   Expr
		want string
	}{
		{&NotExpr{Sub: &NotExpr{Sub: a}}, "(a = b)"},
		{
			&NotExpr{Sub: &BinaryExpr{Op: "OR",
				Left:  &NotExpr{Sub: a},
				Right: &NotExpr{Sub: like}}},
			"((a = b) AND (c NOT LIKE '%x%'))",
		},
		{
			&NotExpr{Sub: &BinaryExpr{Op: "AND", Left: a, Right: like}},
			"((NOT (a = b)) OR (NOT (c NOT LIKE '%x%')))",
		},
	}
	for _, c := range cases {
		if got := formatExpr(normalizePredicate(c.in)); got != c.want {
			t.Errorf("normalize(%s) = %s, want %s", formatExpr(c.in), got, c.want)
		}
	}
	// Leaves pass through by identity so compiled-matcher caches keyed on
	// AST nodes keep working.
	if normalizePredicate(like) != Expr(like) {
		t.Error("leaf not returned by identity")
	}
}
