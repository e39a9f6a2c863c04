package mdb

import (
	"context"
	"testing"

	"doppiodb/internal/bat"
	"doppiodb/internal/perf"
	"doppiodb/internal/shmem"
	"doppiodb/internal/workload"
)

func loadAddresses(t *testing.T, n int, kind workload.HitKind, sel float64) (*DB, *Table, int) {
	t.Helper()
	db := New(nil)
	rows, hits := workload.NewGenerator(21, 64).Table(n, kind, sel)
	tbl, err := db.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl, hits
}

func TestCreateTableErrors(t *testing.T) {
	db := New(nil)
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := db.CreateTable("t", ColSpec{"a", KindInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", ColSpec{"a", KindInt}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTable("u", ColSpec{"a", KindInt}, ColSpec{"a", KindString}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table lookup succeeded")
	}
}

func TestAppendRowTypeChecks(t *testing.T) {
	db := New(nil)
	tbl, _ := db.CreateTable("t", ColSpec{"id", KindInt}, ColSpec{"s", KindString})
	if err := tbl.AppendRow(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(int32(2), "y"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow("bad", "x"); err == nil {
		t.Error("wrong int type accepted")
	}
	if err := tbl.AppendRow(3, 4); err == nil {
		t.Error("wrong string type accepted")
	}
	if err := tbl.AppendRow(1); err == nil {
		t.Error("arity mismatch accepted")
	}
	if tbl.Rows() != 2 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
}

func TestSelectLikeCountsMatchGroundTruth(t *testing.T) {
	db, tbl, hits := loadAddresses(t, 20_000, workload.HitQ1, 0.2)
	for _, mode := range []ExecMode{Parallel, SequentialPipe} {
		db.Mode = mode
		sel, err := db.SelectLike(tbl, "address_string", workload.Q1Like, false)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Count() != hits {
			t.Errorf("mode %v: LIKE matched %d, want %d", mode, sel.Count(), hits)
		}
		if sel.Work.Rows != 20_000 {
			t.Errorf("mode %v: rows scanned %d", mode, sel.Work.Rows)
		}
		if sel.Work.Comparisons == 0 || sel.Work.Bytes == 0 {
			t.Errorf("mode %v: empty work counters %+v", mode, sel.Work)
		}
	}
}

func TestSelectRegexpAllQueries(t *testing.T) {
	cases := []struct {
		kind workload.HitKind
		pat  string
	}{
		{workload.HitQ2, workload.Q2},
		{workload.HitQ3, workload.Q3},
		{workload.HitQ4, workload.Q4},
	}
	for _, c := range cases {
		db, tbl, hits := loadAddresses(t, 10_000, c.kind, 0.2)
		sel, err := db.SelectRegexp(tbl, "address_string", c.pat, false)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Count() != hits {
			t.Errorf("%q matched %d, want %d", c.pat, sel.Count(), hits)
		}
		if sel.Work.Steps == 0 {
			t.Error("no backtracking steps recorded")
		}
	}
}

func TestSelectionOIDsSortedUnique(t *testing.T) {
	db, tbl, _ := loadAddresses(t, 15_000, workload.HitQ1, 0.3)
	sel, err := db.SelectLike(tbl, "address_string", workload.Q1Like, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sel.OIDs); i++ {
		if sel.OIDs[i] <= sel.OIDs[i-1] {
			t.Fatal("OIDs not sorted/unique (parallel merge broken)")
		}
	}
}

func TestSelectContains(t *testing.T) {
	db, tbl, hits := loadAddresses(t, 8_000, workload.HitTable1, 0.15)
	built, rows, err := db.EnsureContainsIndex(tbl, "address_string")
	if err != nil {
		t.Fatal(err)
	}
	if !built || rows != 8_000 {
		t.Errorf("index build: built=%v rows=%d", built, rows)
	}
	built, _, _ = db.EnsureContainsIndex(tbl, "address_string")
	if built {
		t.Error("index rebuilt unnecessarily")
	}
	sel, err := db.SelectContains(tbl, "address_string", workload.Table1Contains)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != hits {
		t.Errorf("CONTAINS matched %d, want %d", sel.Count(), hits)
	}
}

func TestContainsAgreesWithLike(t *testing.T) {
	db, tbl, _ := loadAddresses(t, 5_000, workload.HitTable1, 0.25)
	c, _ := db.SelectContains(tbl, "address_string", workload.Table1Contains)
	l, _ := db.SelectLike(tbl, "address_string", workload.Table1Like, false)
	r, _ := db.SelectRegexp(tbl, "address_string", workload.Table1Regex, false)
	if c.Count() != l.Count() || l.Count() != r.Count() {
		t.Errorf("operator disagreement: CONTAINS=%d LIKE=%d REGEXP=%d",
			c.Count(), l.Count(), r.Count())
	}
}

func TestUDFRegistryAndCall(t *testing.T) {
	db, tbl, _ := loadAddresses(t, 100, workload.HitQ1, 0.5)
	db.RegisterUDF("regexp_fpga", func(_ context.Context, col *bat.Strings, arg string) (*UDFResult, error) {
		res, _ := bat.NewShorts(nil, col.Count())
		matches := 0
		for i := 0; i < col.Count(); i++ {
			v := uint16(0)
			if len(col.Get(i)) > 0 && arg == "always" {
				v, matches = 1, matches+1
			}
			res.Append(v)
		}
		return &UDFResult{Result: res, Work: perf.Work{Rows: col.Count()}}, nil
	})
	out, err := db.CallUDF(context.Background(), "regexp_fpga", tbl, "address_string", "always")
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Count() != 100 {
		t.Errorf("UDF result rows = %d", out.Result.Count())
	}
	if _, err := db.CallUDF(context.Background(), "nope", tbl, "address_string", "x"); err == nil {
		t.Error("unknown UDF accepted")
	}
	if _, err := db.CallUDF(context.Background(), "regexp_fpga", tbl, "id", "x"); err == nil {
		t.Error("UDF over int column accepted")
	}
}

func TestRegionBackedTables(t *testing.T) {
	region := shmem.NewRegion(512 << 20)
	db := New(region)
	rows, hits := workload.NewGenerator(4, 64).Table(5_000, workload.HitQ1, 0.2)
	tbl, err := db.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	if region.Stats().Live == 0 {
		t.Error("BAT not in shared region")
	}
	sel, _ := db.SelectLike(tbl, "address_string", workload.Q1Like, false)
	if sel.Count() != hits {
		t.Errorf("region-backed scan: %d vs %d", sel.Count(), hits)
	}
}

func TestParallelAndSequentialAgree(t *testing.T) {
	db, tbl, _ := loadAddresses(t, 12_345, workload.HitQ2, 0.2)
	db.Mode = Parallel
	a, _ := db.SelectRegexp(tbl, "address_string", workload.Q2, false)
	db.Mode = SequentialPipe
	b, _ := db.SelectRegexp(tbl, "address_string", workload.Q2, false)
	if a.Count() != b.Count() {
		t.Errorf("parallel %d vs sequential %d", a.Count(), b.Count())
	}
	if a.Work.Steps != b.Work.Steps {
		t.Errorf("work differs: %d vs %d steps", a.Work.Steps, b.Work.Steps)
	}
}

func TestAccessors(t *testing.T) {
	region := shmem.NewRegion(64 << 20)
	db := New(region)
	if db.Region() != region {
		t.Error("Region() wrong")
	}
	tbl, _ := db.CreateTable("t",
		ColSpec{"id", KindInt}, ColSpec{"s", KindString}, ColSpec{"h", KindShort})
	tbl.AppendRow(1, "x", uint16(2))
	cols := tbl.Columns()
	if len(cols) != 3 {
		t.Fatalf("Columns: %d", len(cols))
	}
	for _, c := range cols {
		if c.Count() != 1 {
			t.Errorf("column %s count %d", c.Name, c.Count())
		}
	}
	kinds := []string{cols[0].Kind.String(), cols[1].Kind.String(), cols[2].Kind.String()}
	if kinds[0] != "int" || kinds[1] != "varchar" || kinds[2] != "short" {
		t.Errorf("kind strings: %v", kinds)
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind string empty")
	}
	if (&Column{Kind: Kind(99)}).Count() != 0 {
		t.Error("unknown kind count")
	}
}

func TestAppendRowShortErrors(t *testing.T) {
	db := New(nil)
	tbl, _ := db.CreateTable("t", ColSpec{"h", KindShort})
	if err := tbl.AppendRow(uint16(7)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(7); err == nil {
		t.Error("int into short column accepted")
	}
}

func TestScanOverNonStringColumn(t *testing.T) {
	db := New(nil)
	tbl, _ := db.CreateTable("t", ColSpec{"id", KindInt})
	tbl.AppendRow(1)
	if _, err := db.SelectLike(tbl, "id", "%x%", false); err == nil {
		t.Error("LIKE over int column accepted")
	}
	if _, err := db.SelectRegexp(tbl, "id", "x", false); err == nil {
		t.Error("REGEXP over int column accepted")
	}
	if _, _, err := db.EnsureContainsIndex(tbl, "id"); err == nil {
		t.Error("CONTAINS index over int column accepted")
	}
	if _, err := db.SelectLike(tbl, "missing", "%x%", false); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := db.SelectLike(tbl, "id", "a\\", false); err == nil {
		t.Error("bad LIKE pattern accepted")
	}
	if _, err := db.SelectRegexp(tbl, "id", "(", false); err == nil {
		t.Error("bad regex accepted")
	}
}
