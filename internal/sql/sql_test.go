package sql

import (
	"fmt"
	"testing"

	"doppiodb/internal/core"
	"doppiodb/internal/mdb"
	"doppiodb/internal/strmatch"
	"doppiodb/internal/workload"
)

func addressEngine(t *testing.T, n int, kind workload.HitKind, sel float64) (*Engine, int) {
	t.Helper()
	db := mdb.New(nil)
	rows, hits := workload.NewGenerator(77, 64).Table(n, kind, sel)
	if _, err := db.LoadAddressTable("address_table", rows); err != nil {
		t.Fatal(err)
	}
	return NewEngine(db), hits
}

func oneCount(t *testing.T, e *Engine, q string) (int64, *Result) {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("want single count cell, got %v", res.Rows)
	}
	n, ok := res.Rows[0][0].(int64)
	if !ok {
		t.Fatalf("count is %T", res.Rows[0][0])
	}
	return n, res
}

func TestSelectCountLikeFastPath(t *testing.T) {
	e, hits := addressEngine(t, 10_000, workload.HitQ1, 0.2)
	n, res := oneCount(t, e,
		`SELECT count(*) FROM address_table WHERE address_string LIKE '%Strasse%';`)
	if int(n) != hits {
		t.Errorf("count = %d, want %d", n, hits)
	}
	if res.FastPath != "like" {
		t.Errorf("fast path = %q, want like", res.FastPath)
	}
	if res.Work.Rows != 10_000 {
		t.Errorf("work rows = %d", res.Work.Rows)
	}
}

func TestSelectCountRegexpFastPath(t *testing.T) {
	e, hits := addressEngine(t, 10_000, workload.HitQ2, 0.2)
	// Both argument orders the paper uses.
	for _, q := range []string{
		`SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, '(Strasse|Str\.).*(8[0-9]{4})')`,
		`SELECT count(*) FROM address_table WHERE REGEXP_LIKE('(Strasse|Str\.).*(8[0-9]{4})', address_string)`,
	} {
		n, res := oneCount(t, e, q)
		if int(n) != hits {
			t.Errorf("count = %d, want %d", n, hits)
		}
		if res.FastPath != "regexp" {
			t.Errorf("fast path = %q", res.FastPath)
		}
		if res.Work.Steps == 0 {
			t.Error("no steps counted")
		}
	}
}

func TestSelectCountContains(t *testing.T) {
	e, hits := addressEngine(t, 6_000, workload.HitTable1, 0.2)
	n, res := oneCount(t, e,
		`SELECT count(*) FROM address_table WHERE CONTAINS('Alan & Turing & Cheshire')`)
	if int(n) != hits {
		t.Errorf("count = %d, want %d", n, hits)
	}
	if res.FastPath != "contains" {
		t.Errorf("fast path = %q", res.FastPath)
	}
}

func TestRegexpFPGAUDFPath(t *testing.T) {
	s, err := core.NewSystem(core.Options{RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rows, hits := workload.NewGenerator(77, 64).Table(10_000, workload.HitQ3, 0.2)
	if _, err := s.DB.LoadAddressTable("address_table", rows); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s.DB)
	n, res := oneCount(t, e,
		`SELECT count(*) FROM address_table WHERE REGEXP_FPGA('[0-9]+(USD|EUR|GBP)', address_string) <> 0`)
	if int(n) != hits {
		t.Errorf("count = %d, want %d", n, hits)
	}
	if res.FastPath != "udf" || res.UDF == nil {
		t.Errorf("UDF path not taken: %q %v", res.FastPath, res.UDF)
	}
	if res.UDF.HWSeconds <= 0 {
		t.Error("no hardware time")
	}
	// `= 0` counts the complement.
	n0, _ := oneCount(t, e,
		`SELECT count(*) FROM address_table WHERE REGEXP_FPGA('[0-9]+(USD|EUR|GBP)', address_string) = 0`)
	if int(n+n0) != 10_000 {
		t.Errorf("match + nonmatch = %d", n+n0)
	}
}

func TestOperatorsAgree(t *testing.T) {
	// Table 1's setup: the same predicate through CONTAINS, LIKE and
	// REGEXP_LIKE must select the same rows.
	e, hits := addressEngine(t, 5_000, workload.HitTable1, 0.2)
	qs := []string{
		`SELECT count(*) FROM address_table WHERE CONTAINS('Alan & Turing & Cheshire')`,
		`SELECT count(*) FROM address_table WHERE address_string LIKE '%Alan%Turing%Cheshire%'`,
		`SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, 'Alan.*Turing.*Cheshire')`,
	}
	for _, q := range qs {
		n, _ := oneCount(t, e, q)
		if int(n) != hits {
			t.Errorf("%s: count %d, want %d", q, n, hits)
		}
	}
}

func TestGeneralPipelineProjectionAndWhere(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t",
		mdb.ColSpec{Name: "id", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "name", Kind: mdb.KindString})
	for i, name := range []string{"alpha", "beta", "gamma", "alphabet"} {
		tbl.AppendRow(i, name)
	}
	e := NewEngine(db)
	res, err := e.Query(`SELECT id, name FROM t WHERE name LIKE 'alpha%' ORDER BY id DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].(int64) != 3 || res.Rows[1][0].(int64) != 0 {
		t.Errorf("order: %v", res.Rows)
	}
	if res.Cols[1] != "name" {
		t.Errorf("cols: %v", res.Cols)
	}
}

func TestGroupByCountAndHaving(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t",
		mdb.ColSpec{Name: "k", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "v", Kind: mdb.KindString})
	for i := 0; i < 10; i++ {
		tbl.AppendRow(i%3, fmt.Sprintf("v%d", i))
	}
	e := NewEngine(db)
	res, err := e.Query(`SELECT k, count(*) AS n FROM t GROUP BY k ORDER BY n DESC, k ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %v", res.Rows)
	}
	// k=0 has 4 rows; k=1 and k=2 have 3 each.
	if res.Rows[0][0].(int64) != 0 || res.Rows[0][1].(int64) != 4 {
		t.Errorf("first group: %v", res.Rows[0])
	}
	if res.Rows[1][0].(int64) != 1 || res.Rows[2][0].(int64) != 2 {
		t.Errorf("tie order: %v", res.Rows)
	}
}

func TestLimitAndStar(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t", mdb.ColSpec{Name: "id", Kind: mdb.KindInt})
	for i := 0; i < 5; i++ {
		tbl.AppendRow(i)
	}
	e := NewEngine(db)
	res, err := e.Query(`SELECT * FROM t ORDER BY id LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][0].(int64) != 1 {
		t.Errorf("limit: %v", res.Rows)
	}
}

// tpchQ13SQL is the exact query of §7.7.
const tpchQ13SQL = `
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey)
  FROM customer
  LEFT OUTER JOIN orders ON
    c_custkey = o_custkey
    AND o_comment NOT LIKE '%special%requests%'
  GROUP BY c_custkey
) AS c_orders (c_custkey, c_count)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC;`

func loadTPCH(t *testing.T, e *Engine, tp *workload.TPCH) {
	t.Helper()
	cust, err := e.DB.CreateTable("customer",
		mdb.ColSpec{Name: "c_custkey", Kind: mdb.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tp.Customers {
		cust.AppendRow(c.CustKey)
	}
	ord, err := e.DB.CreateTable("orders",
		mdb.ColSpec{Name: "o_orderkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_custkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_comment", Kind: mdb.KindString})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tp.Orders {
		ord.AppendRow(o.OrderKey, o.CustKey, o.Comment)
	}
}

func TestTPCHQ13MatchesReference(t *testing.T) {
	tp := workload.GenerateTPCH(13, 0.01, 0.01)
	e := NewEngine(mdb.New(nil))
	loadTPCH(t, e, tp)

	res, err := e.Query(tpchQ13SQL)
	if err != nil {
		t.Fatal(err)
	}
	lp, _ := strmatch.CompileLike(`%special%requests%`, false)
	want := tp.Q13Reference(func(c string) bool { return lp.MatchString(c) })

	if len(res.Rows) != len(want) {
		t.Fatalf("Q13 groups = %d, want %d", len(res.Rows), len(want))
	}
	prevDist := int64(1 << 62)
	prevCount := int64(1 << 62)
	for _, row := range res.Rows {
		cCount := row[0].(int64)
		dist := row[1].(int64)
		if want[int(cCount)] != int(dist) {
			t.Errorf("c_count %d: custdist %d, want %d", cCount, dist, want[int(cCount)])
		}
		// ORDER BY custdist DESC, c_count DESC.
		if dist > prevDist || (dist == prevDist && cCount > prevCount) {
			t.Errorf("order violated at c_count=%d", cCount)
		}
		prevDist, prevCount = dist, cCount
	}
	if res.Work.Comparisons == 0 {
		t.Error("Q13 scan work not recorded")
	}
}

func TestParseErrors(t *testing.T) {
	e := NewEngine(mdb.New(nil))
	bad := []string{
		``,
		`SELECT`,
		`SELECT count(* FROM t`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP`,
		`SELECT a FROM t ORDER BY`,
		`SELECT a FROM (SELECT b FROM u)`, // derived table needs alias
		`SELECT a FROM t WHERE a LIKE b`,  // pattern must be a literal
		`SELECT a FROM t; SELECT b FROM t`,
		`SELECT a FROM t LIMIT x`,
		`SELECT a FROM t WHERE 'abc`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
}

func TestUnknownColumnAndTableErrors(t *testing.T) {
	db := mdb.New(nil)
	db.CreateTable("t", mdb.ColSpec{Name: "id", Kind: mdb.KindInt})
	e := NewEngine(db)
	if _, err := e.Query(`SELECT id FROM missing`); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := e.Query(`SELECT nope FROM t`); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := e.Query(`SELECT id FROM t ORDER BY nope`); err == nil {
		t.Error("bad order column accepted")
	}
}

func TestLeftOuterJoinNullPadding(t *testing.T) {
	db := mdb.New(nil)
	l, _ := db.CreateTable("l", mdb.ColSpec{Name: "k", Kind: mdb.KindInt})
	r, _ := db.CreateTable("r",
		mdb.ColSpec{Name: "rk", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "val", Kind: mdb.KindString})
	for i := 0; i < 4; i++ {
		l.AppendRow(i)
	}
	r.AppendRow(1, "one")
	r.AppendRow(3, "three")
	r.AppendRow(3, "tres")
	e := NewEngine(db)
	res, err := e.Query(`SELECT k, count(val) AS n FROM l LEFT OUTER JOIN r ON k = rk GROUP BY k ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	wantN := map[int64]int64{0: 0, 1: 1, 2: 0, 3: 2}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	for _, row := range res.Rows {
		if wantN[row[0].(int64)] != row[1].(int64) {
			t.Errorf("k=%v n=%v, want %v", row[0], row[1], wantN[row[0].(int64)])
		}
	}
}

func TestInnerJoin(t *testing.T) {
	db := mdb.New(nil)
	l, _ := db.CreateTable("l", mdb.ColSpec{Name: "k", Kind: mdb.KindInt})
	r, _ := db.CreateTable("r", mdb.ColSpec{Name: "rk", Kind: mdb.KindInt})
	for i := 0; i < 4; i++ {
		l.AppendRow(i)
	}
	r.AppendRow(1)
	r.AppendRow(3)
	e := NewEngine(db)
	res, err := e.Query(`SELECT k FROM l JOIN r ON k = rk ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].(int64) != 1 || res.Rows[1][0].(int64) != 3 {
		t.Errorf("inner join: %v", res.Rows)
	}
}

func TestAdvisorRoutesRegexpToUDF(t *testing.T) {
	// §9's cost-based placement: with the system as advisor, a plain
	// REGEXP_LIKE is transparently offloaded to the hardware UDF.
	s, err := core.NewSystem(core.Options{RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rows, hits := workload.NewGenerator(55, 64).Table(20_000, workload.HitQ2, 0.2)
	if _, err := s.DB.LoadAddressTable("address_table", rows); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s.DB)
	e.Advisor = s
	q := `SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, '(Strasse|Str\.).*(8[0-9]{4})')`
	n, res := oneCount(t, e, q)
	if int(n) != hits {
		t.Errorf("count = %d, want %d", n, hits)
	}
	if res.FastPath != "regexp->udf" {
		t.Errorf("fast path = %q, want regexp->udf", res.FastPath)
	}
	if res.UDF == nil || res.UDF.HWSeconds <= 0 {
		t.Error("offloaded query has no hardware accounting")
	}
	// Without the advisor the same query runs in software.
	e.Advisor = nil
	_, res = oneCount(t, e, q)
	if res.FastPath != "regexp" {
		t.Errorf("fast path without advisor = %q", res.FastPath)
	}
}

func TestAggregatesSumMinMaxAvg(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t",
		mdb.ColSpec{Name: "k", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "v", Kind: mdb.KindInt})
	vals := map[int][]int{0: {10, 20, 30}, 1: {5, 15}}
	for k, vs := range vals {
		for _, v := range vs {
			tbl.AppendRow(k, v)
		}
	}
	e := NewEngine(db)
	res, err := e.Query(`SELECT k, sum(v) AS s, min(v) AS lo, max(v) AS hi, avg(v) AS a, count(*) AS n
		FROM t GROUP BY k ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0, 60, 10, 30, 20, 3}, {1, 20, 5, 15, 10, 2}}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	for i, w := range want {
		for j, x := range w {
			if res.Rows[i][j].(int64) != x {
				t.Errorf("row %d col %d = %v, want %d", i, j, res.Rows[i][j], x)
			}
		}
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := mdb.New(nil)
	db.CreateTable("t", mdb.ColSpec{Name: "v", Kind: mdb.KindInt})
	e := NewEngine(db)
	res, err := e.Query(`SELECT count(*), sum(v), min(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].(int64) != 0 || res.Rows[0][1] != nil || res.Rows[0][2] != nil {
		t.Errorf("empty aggregates: %v", res.Rows[0])
	}
}

func TestHaving(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t", mdb.ColSpec{Name: "k", Kind: mdb.KindInt})
	for i := 0; i < 10; i++ {
		tbl.AppendRow(i % 3) // k=0: 4 rows, k=1: 3, k=2: 3
	}
	e := NewEngine(db)
	res, err := e.Query(`SELECT k, count(*) AS n FROM t GROUP BY k HAVING n > 3 ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 || res.Rows[0][1].(int64) != 4 {
		t.Errorf("HAVING result: %v", res.Rows)
	}
	// HAVING referencing a group key.
	res, err = e.Query(`SELECT k, count(*) AS n FROM t GROUP BY k HAVING k <> 1 ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("HAVING on key: %v", res.Rows)
	}
}

func TestAggregateErrors(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t",
		mdb.ColSpec{Name: "k", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "s", Kind: mdb.KindString})
	tbl.AppendRow(1, "x")
	e := NewEngine(db)
	if _, err := e.Query(`SELECT sum(s) FROM t GROUP BY k`); err == nil {
		t.Error("SUM over strings accepted")
	}
	if _, err := e.Query(`SELECT k, sum(k) FROM t WHERE sum(k) > 1 GROUP BY k`); err == nil {
		t.Error("aggregate in WHERE accepted")
	}
	// MIN/MAX over strings is fine (lexicographic).
	res, err := e.Query(`SELECT min(s), max(s) FROM t`)
	if err != nil || res.Rows[0][0].(string) != "x" {
		t.Errorf("MIN over strings: %v %v", res, err)
	}
}

// Session labels are numbered per database: two Systems in one process both
// hand out s1, whatever engines the process built before.
func TestSessionsNumberedPerSystem(t *testing.T) {
	for i := 0; i < 2; i++ {
		s, err := core.NewSystem(core.Options{RegionBytes: 1 << 26})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if a, b := NewEngine(s.DB).ID, NewEngine(s.DB).ID; a != "s1" || b != "s2" {
			t.Errorf("system %d: sessions %q, %q, want s1, s2", i, a, b)
		}
	}
}
