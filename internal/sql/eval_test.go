package sql

import (
	"strings"
	"testing"

	"doppiodb/internal/mdb"
)

// evalEngine builds a small mixed-type table for expression tests.
func evalEngine(t *testing.T) *Engine {
	t.Helper()
	db := mdb.New(nil)
	tbl, err := db.CreateTable("t",
		mdb.ColSpec{Name: "id", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "name", Kind: mdb.KindString},
		mdb.ColSpec{Name: "n", Kind: mdb.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id   int
		name string
		n    int
	}{
		{1, "alpha", 10},
		{2, "beta", 20},
		{3, "gamma", 30},
		{4, "Straße 80123", 40},
		{5, "Strasse 80123", 50},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.id, r.name, r.n); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(db)
}

func ids(t *testing.T, e *Engine, q string) []int64 {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	var out []int64
	for _, row := range res.Rows {
		out = append(out, row[0].(int64))
	}
	return out
}

func eqInts(a []int64, b ...int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWhereOperators(t *testing.T) {
	e := evalEngine(t)
	cases := []struct {
		q    string
		want []int64
	}{
		{`SELECT id FROM t WHERE n > 20 AND n < 50 ORDER BY id`, []int64{3, 4}},
		{`SELECT id FROM t WHERE n >= 40 OR id = 1 ORDER BY id`, []int64{1, 4, 5}},
		{`SELECT id FROM t WHERE NOT (n <= 30) ORDER BY id`, []int64{4, 5}},
		{`SELECT id FROM t WHERE n <> 10 AND n != 20 AND n < 40 ORDER BY id`, []int64{3}},
		{`SELECT id FROM t WHERE name = 'beta'`, []int64{2}},
		{`SELECT id FROM t WHERE name > 'b' AND name < 'c' ORDER BY id`, []int64{2}},
		{`SELECT id FROM t WHERE t.n = 30`, []int64{3}},
		{`SELECT id FROM t WHERE name LIKE '%80123' ORDER BY id`, []int64{4, 5}},
		// ß is two UTF-8 bytes; the byte-wise dialect matches them as a
		// two-byte literal sequence, so both spellings hit.
		{`SELECT id FROM t WHERE REGEXP_LIKE(name, 'Stra(ss|ß)e') ORDER BY id`, []int64{4, 5}},
		{`SELECT id FROM t WHERE REGEXP_LIKE(name, 'Strasse.*8[0-9]{4}')`, []int64{5}},
		{`SELECT id FROM t WHERE REGEXP_FPGA('gamma', name) <> 0`, []int64{3}},
		{`SELECT id FROM t WHERE name IS NOT NULL AND n IS NULL`, nil},
		{`SELECT id FROM t WHERE (id = 1 OR id = 2) AND NOT id = 2`, []int64{1}},
	}
	for _, c := range cases {
		got := ids(t, e, c.q)
		if !eqInts(got, c.want...) {
			t.Errorf("%s: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSQLComments(t *testing.T) {
	e := evalEngine(t)
	got := ids(t, e, `SELECT id FROM t -- trailing comment
		WHERE id = 3 -- another
	`)
	if !eqInts(got, 3) {
		t.Errorf("comments broke parsing: %v", got)
	}
}

func TestEscapedQuotesInLiterals(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t",
		mdb.ColSpec{Name: "id", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "s", Kind: mdb.KindString})
	tbl.AppendRow(1, "it's")
	tbl.AppendRow(2, "its")
	e := NewEngine(db)
	got := ids(t, e, `SELECT id FROM t WHERE s = 'it''s'`)
	if !eqInts(got, 1) {
		t.Errorf("quote escape: %v", got)
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	e := evalEngine(t)
	bad := []string{
		`SELECT id FROM t WHERE n = 'x'`,
		`SELECT id FROM t WHERE name < 5`,
		`SELECT id FROM t WHERE name AND n`,
		`SELECT id FROM t WHERE nosuchfunc(n) = 1`,
		`SELECT id FROM t WHERE n LIKE '%x%'`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("%s: accepted", q)
		}
	}
}

func TestContainsTwoArgForm(t *testing.T) {
	e := evalEngine(t)
	res, err := e.Query(`SELECT count(*) FROM t WHERE CONTAINS(name, 'Strasse & 80123')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("CONTAINS(col, q) = %v", res.Rows[0][0])
	}
	if res.FastPath != "contains" {
		t.Errorf("path %q", res.FastPath)
	}
}

func TestFPGAPredicateVariants(t *testing.T) {
	// The predicate matcher accepts the literal on either side and both
	// comparison directions.
	e := evalEngine(t)
	for _, q := range []string{
		`SELECT count(*) FROM t WHERE REGEXP_FPGA('beta', name) <> 0`,
		`SELECT count(*) FROM t WHERE 0 <> REGEXP_FPGA('beta', name)`,
		`SELECT count(*) FROM t WHERE REGEXP_FPGA(name, 'beta') <> 0`,
	} {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Rows[0][0].(int64) != 1 {
			t.Errorf("%s = %v", q, res.Rows[0][0])
		}
	}
}

func TestQualifiedAndAliasedTables(t *testing.T) {
	e := evalEngine(t)
	got := ids(t, e, `SELECT x.id FROM t AS x WHERE x.n = 20`)
	if !eqInts(got, 2) {
		t.Errorf("alias: %v", got)
	}
	got = ids(t, e, `SELECT x.id FROM t x WHERE x.n = 20`)
	if !eqInts(got, 2) {
		t.Errorf("bare alias: %v", got)
	}
	if _, err := e.Query(`SELECT y.id FROM t AS x WHERE x.n = 20`); err == nil {
		t.Error("wrong qualifier accepted")
	}
}

func TestGroupByStringKey(t *testing.T) {
	db := mdb.New(nil)
	tbl, _ := db.CreateTable("t",
		mdb.ColSpec{Name: "city", Kind: mdb.KindString},
		mdb.ColSpec{Name: "v", Kind: mdb.KindInt})
	for _, r := range []struct {
		c string
		v int
	}{{"a b", 1}, {"a", 2}, {"a b", 3}} {
		tbl.AppendRow(r.c, r.v)
	}
	e := NewEngine(db)
	res, err := e.Query(`SELECT city, sum(v) AS s FROM t GROUP BY city ORDER BY s DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// Keys "a b" (sum 4) and "a" (sum 2) must not collide.
	if len(res.Rows) != 2 || res.Rows[0][1].(int64) != 4 || res.Rows[1][1].(int64) != 2 {
		t.Errorf("string group keys: %v", res.Rows)
	}
}

func TestSubqueryColumnAliasMismatch(t *testing.T) {
	e := evalEngine(t)
	if _, err := e.Query(`SELECT a FROM (SELECT id, n FROM t) AS s (a)`); err == nil {
		t.Error("alias arity mismatch accepted")
	}
	res, err := e.Query(`SELECT a, b FROM (SELECT id, n FROM t) AS s (a, b) WHERE a = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].(int64) != 20 {
		t.Errorf("derived aliases: %v", res.Rows)
	}
}

func TestJoinRequiresEquality(t *testing.T) {
	e := evalEngine(t)
	if _, err := e.Query(`SELECT t.id FROM t JOIN t AS u ON t.n > u.n`); err == nil {
		t.Error("join without equality accepted")
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := evalEngine(t)
	res, err := e.Query(
		`SELECT a.id, b.id FROM t AS a JOIN t AS b ON a.n = b.n WHERE a.id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].(int64) != 3 {
		t.Errorf("self join: %v", res.Rows)
	}
}

func TestArithmeticExpressions(t *testing.T) {
	e := evalEngine(t)
	res, err := e.Query(`SELECT id, n * 2 + 1 AS x, n / 10 - id AS y FROM t WHERE id <= 2 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	// id=1: n=10 -> x=21, y=0; id=2: n=20 -> x=41, y=0
	if res.Rows[0][1].(int64) != 21 || res.Rows[1][1].(int64) != 41 {
		t.Errorf("arithmetic: %v", res.Rows)
	}
	if res.Rows[0][2].(int64) != 0 || res.Rows[1][2].(int64) != 0 {
		t.Errorf("precedence: %v", res.Rows)
	}
	// Precedence: 2+3*4 = 14, (2+3)*4 = 20; unary minus.
	res, err = e.Query(`SELECT 2 + 3 * 4 AS a, (2 + 3) * 4 AS b, -5 + n AS c FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].(int64) != 14 || row[1].(int64) != 20 || row[2].(int64) != 5 {
		t.Errorf("precedence/unary: %v", row)
	}
	// In predicates.
	got := ids(t, e, `SELECT id FROM t WHERE n - id * 10 = 0 ORDER BY id`)
	if len(got) == 0 {
		t.Errorf("arithmetic predicate: %v", got)
	}
	// Errors.
	if _, err := e.Query(`SELECT n / 0 FROM t`); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := e.Query(`SELECT name + 1 FROM t`); err == nil {
		t.Error("string arithmetic accepted")
	}
	// Arithmetic in aggregates and GROUP BY.
	res, err = e.Query(`SELECT sum(n * 2) AS s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 300 {
		t.Errorf("sum of expression: %v", res.Rows[0][0])
	}
}

func TestRegexpFPGARowAtATime(t *testing.T) {
	// Without a device the HUDF is evaluated per row and still returns the
	// match index: by the PU model where the program fits its circuit, by
	// the reference interpreter where it does not.
	e := evalEngine(t)
	if got := ids(t, e, `SELECT REGEXP_FPGA('Strasse', name) FROM t`); !eqInts(got, 0, 0, 0, 0, 7) {
		t.Errorf("match indexes: %v", got)
	}
	// 34 tokens: one more alternative than the state graph holds.
	wide := "(" + strings.Join(strings.Split("abcdefghijklmnopqrstuvwxyz0123456", ""), "|") + ")a"
	if got := ids(t, e, `SELECT REGEXP_FPGA('`+wide+`', name) FROM t`); !eqInts(got, 5, 4, 2, 4, 4) {
		t.Errorf("over-capacity match indexes: %v", got)
	}
}
