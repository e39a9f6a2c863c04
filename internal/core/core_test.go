package core

import (
	"context"
	"testing"

	"doppiodb/internal/config"
	"doppiodb/internal/fpga"
	"doppiodb/internal/mdb"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Options{RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func loadTable(t *testing.T, s *System, n int, kind workload.HitKind, sel float64) (*mdb.Table, int) {
	t.Helper()
	rows, hits := workload.NewGenerator(33, 64).Table(n, kind, sel)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, hits
}

func TestHUDFEndToEnd(t *testing.T) {
	s := newSystem(t)
	tbl, hits := loadTable(t, s, 10_000, workload.HitQ2, 0.2)
	col, _ := tbl.Column("address_string")

	out, err := s.DB.CallUDF(context.Background(), UDFName, tbl, "address_string", workload.Q2)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < out.Result.Count(); i++ {
		if out.Result.Get(i) != 0 {
			got++
		}
	}
	if got != hits {
		t.Errorf("HUDF matched %d, want %d", got, hits)
	}
	if out.HWSeconds <= 0 {
		t.Error("no hardware time recorded")
	}
	if out.Breakdown[PhaseConfigGen] <= 0 || out.Breakdown[PhaseConfigGen] > 1e-6 {
		t.Errorf("config generation = %v s, want <1µs (§7.4)", out.Breakdown[PhaseConfigGen])
	}
	_ = col
}

func TestExecAgainstSoftwareOracle(t *testing.T) {
	s := newSystem(t)
	tbl, _ := loadTable(t, s, 5_000, workload.HitQ3, 0.25)
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, workload.Q3, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := token.CompilePattern(workload.Q3, token.Options{})
	for i := 0; i < col.Strs.Count(); i++ {
		want := uint16(prog.Match(col.Strs.Get(i)))
		if got := res.Matches.Get(i); got != want {
			t.Fatalf("row %d: fpga=%d oracle=%d", i, got, want)
		}
	}
}

// TestExecLike offloads Q1: its LIKE '%Strasse%' runs on the engines as the
// regex Strasse.
func TestExecLike(t *testing.T) {
	s := newSystem(t)
	tbl, hits := loadTable(t, s, 8_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != hits {
		t.Errorf("Q1 matched %d, want %d", res.MatchCount, hits)
	}
	if res.Hybrid {
		t.Error("Q1 should not need hybrid execution")
	}
}

// TestExecILikeCollation offloads ILIKE '%Strasse%' as the regex Strasse
// under case folding.
func TestExecILikeCollation(t *testing.T) {
	s := newSystem(t)
	rows := []string{"KOBLENZER STRASSE 1", "koblenzer strasse 2", "Lindenweg 3"}
	tbl, err := s.DB.LoadAddressTable("t", rows)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, `Strasse`, token.Options{FoldCase: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("ILIKE matched %d, want 2", res.MatchCount)
	}
}

func TestSplitPattern(t *testing.T) {
	lim := config.Limits{MaxStates: 5, MaxChars: 24}
	hw, sw, err := SplitPattern(workload.QH, lim, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hw == "" || sw == "" {
		t.Fatalf("empty split: %q / %q", hw, sw)
	}
	// The HW part must fit, and the obvious split is at the last `.*`.
	prog, err := token.CompilePattern(hw, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if config.Fits(prog, lim) != nil {
		t.Errorf("hw part %q does not fit", hw)
	}
	if sw != "delivery" {
		t.Errorf("sw part = %q, want delivery", sw)
	}
	// Unsplittable: no top-level wildcard.
	if _, _, err := SplitPattern(`[A-Za-z]{3}[0-9]{9}[a-z]{9}`, config.Limits{MaxStates: 2, MaxChars: 4}, token.Options{}); err != ErrCannotSplit {
		t.Errorf("err = %v, want ErrCannotSplit", err)
	}
}

func TestHybridExecution(t *testing.T) {
	// Deploy a tiny device so QH does not fit and hybrid kicks in.
	dep := fpga.DefaultDeployment()
	dep.Limits = config.Limits{MaxStates: 8, MaxChars: 24}
	s, err := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rows, hits := workload.NewGenerator(9, 80).Table(8_000, workload.HitQH, 0.3)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := tbl.Column("address_string")

	res, err := s.Exec(context.Background(), col.Strs, workload.QH, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hybrid {
		t.Fatal("expected hybrid execution")
	}
	if res.SWPart != "delivery" {
		t.Errorf("sw part %q", res.SWPart)
	}
	if res.MatchCount != hits {
		t.Errorf("hybrid matched %d, want %d", res.MatchCount, hits)
	}
	// Oracle check on final match values.
	prog, _ := token.CompilePattern(workload.QH, token.Options{})
	for i := 0; i < col.Strs.Count(); i++ {
		want := prog.Match(col.Strs.Get(i)) != 0
		got := res.Matches.Get(i) != 0
		if want != got {
			t.Fatalf("row %d: hybrid=%v oracle=%v (%q)", i, got, want, col.Strs.GetString(i))
		}
	}
	if res.Breakdown.Get(PhaseSoftware) <= 0 {
		t.Error("no software post-processing time recorded")
	}
	if res.Work.RegexRows == 0 {
		t.Error("no post-processed rows counted")
	}
}

func TestHybridPostprocessOnlyMatches(t *testing.T) {
	// Post-processing must touch only the FPGA-selected rows: with
	// selectivity 0, zero rows reach the CPU (Fig. 13's x-axis).
	dep := fpga.DefaultDeployment()
	dep.Limits = config.Limits{MaxStates: 8, MaxChars: 24}
	s, _ := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	rows, _ := workload.NewGenerator(5, 64).Table(4_000, workload.HitNone, 0)
	tbl, _ := s.DB.LoadAddressTable("t", rows)
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, workload.QH, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work.RegexRows != 0 {
		t.Errorf("post-processed %d rows, want 0", res.Work.RegexRows)
	}
	if res.MatchCount != 0 {
		t.Errorf("matches = %d", res.MatchCount)
	}
}

func TestPatternTooLargeNoSplit(t *testing.T) {
	dep := fpga.DefaultDeployment()
	dep.Limits = config.Limits{MaxStates: 3, MaxChars: 6}
	s, _ := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	rows, _ := workload.NewGenerator(2, 64).Table(100, workload.HitNone, 0)
	tbl, _ := s.DB.LoadAddressTable("t", rows)
	col, _ := tbl.Column("address_string")
	if _, err := s.Exec(context.Background(), col.Strs, `abcdefghij`, token.Options{}); err != ErrCannotSplit {
		t.Errorf("err = %v, want ErrCannotSplit", err)
	}
}

func TestBreakdownPhases(t *testing.T) {
	s := newSystem(t)
	tbl, _ := loadTable(t, s, 10_000, workload.HitQ1, 0.2)
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{PhaseDatabase, PhaseUDF, PhaseConfigGen, PhaseHAL, PhaseHardware} {
		if res.Breakdown.Get(ph) <= 0 {
			t.Errorf("phase %s missing from breakdown", ph)
		}
	}
	hw := res.Breakdown.Get(PhaseHardware)
	if hw <= res.Breakdown.Get(PhaseConfigGen) {
		t.Error("hardware time should dominate config generation")
	}
	if res.Total() <= hw {
		t.Error("total must include software phases")
	}
}
