package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"doppiodb/internal/faults"
	"doppiodb/internal/fpga"
	"doppiodb/internal/hal"
	"doppiodb/internal/regex"
	"doppiodb/internal/shmem"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// Failure injection: the system must degrade with errors, not corruption,
// when platform resources run out or components are misconfigured.

func TestSystemBootFailsOnBadDeployment(t *testing.T) {
	dep := fpga.DefaultDeployment()
	dep.Engines = 5 // fails routing (Fig. 14a)
	if _, err := NewSystem(Options{Deployment: &dep}); err == nil {
		t.Fatal("5x16 system booted")
	}
	dep = fpga.DefaultDeployment()
	dep.PUsPerEngine = 0
	if _, err := NewSystem(Options{Deployment: &dep}); err == nil {
		t.Fatal("0-PU system booted")
	}
}

func TestExecFailsCleanlyWhenRegionExhausted(t *testing.T) {
	// A region barely larger than the HAL's own structures: loading the
	// table or allocating the result BAT must fail with ErrOutOfMemory,
	// and the system must stay usable for smaller requests.
	s, err := NewSystem(Options{RegionBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := workload.NewGenerator(1, 64).Table(500_000, workload.HitQ1, 0.2)
	_, err = s.DB.LoadAddressTable("big", rows)
	if err == nil {
		t.Fatal("loading 500k rows into a 16MB region succeeded")
	}
	if !errors.Is(err, shmem.ErrOutOfMemory) && !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("unexpected error: %v", err)
	}
	// A small table still works after the failure.
	small, _ := workload.NewGenerator(2, 64).Table(50, workload.HitQ1, 0.3)
	tbl, err := s.DB.LoadAddressTable("small", small)
	if err != nil {
		t.Fatalf("small table after OOM: %v", err)
	}
	col, _ := tbl.Column("address_string")
	if _, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err != nil {
		t.Fatalf("exec after OOM: %v", err)
	}
}

func TestExecRejectsBadPatterns(t *testing.T) {
	s := newSystem(t)
	rows, _ := workload.NewGenerator(3, 64).Table(10, workload.HitNone, 0)
	tbl, _ := s.DB.LoadAddressTable("t", rows)
	col, _ := tbl.Column("address_string")
	for _, pat := range []string{``, `(`, `a**`, `a*`, `x|`} {
		if _, err := s.Exec(context.Background(), col.Strs, pat, token.Options{}); err == nil {
			t.Errorf("pattern %q accepted", pat)
		}
	}
}

func TestUDFErrorsPropagateThroughDB(t *testing.T) {
	s := newSystem(t)
	rows, _ := workload.NewGenerator(4, 64).Table(10, workload.HitNone, 0)
	tbl, _ := s.DB.LoadAddressTable("t", rows)
	if _, err := s.DB.CallUDF(context.Background(), UDFName, tbl, "address_string", `(`); err == nil {
		t.Error("bad pattern through UDF accepted")
	}
	if _, err := s.DB.CallUDF(context.Background(), UDFName, tbl, "id", workload.Q1Regex); err == nil {
		t.Error("UDF over int column accepted")
	}
}

func TestHybridFoldCaseUsesBacktracker(t *testing.T) {
	// A folded literal tail cannot use the case-sensitive Boyer-Moore
	// shortcut; the backtracker path must produce the same results.
	dep := fpga.DefaultDeployment()
	dep.Limits.MaxChars = 24
	dep.Limits.MaxStates = 8
	s, err := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rows, hits := workload.NewGenerator(5, 80).Table(3_000, workload.HitQH, 0.4)
	tbl, _ := s.DB.LoadAddressTable("t", rows)
	col, _ := tbl.Column("address_string")
	res, err := s.Exec(context.Background(), col.Strs, strings.ToUpper(workload.QH[:len(workload.QH)-len("delivery")])+"DELIVERY", token.Options{FoldCase: true})
	if err != nil {
		// The uppercased pattern may not parse identically; fall back
		// to the plain pattern with folding.
		res, err = s.Exec(context.Background(), col.Strs, workload.QH, token.Options{FoldCase: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !res.Hybrid {
		t.Fatal("expected hybrid")
	}
	if res.MatchCount != hits {
		t.Errorf("folded hybrid matched %d, want %d", res.MatchCount, hits)
	}
	if res.Work.Steps == 0 {
		t.Error("folded tail should run through the backtracker (steps>0)")
	}
}

func TestLiteralPattern(t *testing.T) {
	cases := []struct {
		pat  string
		want string
		ok   bool
	}{
		{`delivery`, "delivery", true},
		{`a\.b`, "a.b", true},
		{`ab+`, "", false},
		{`(a|b)`, "", false},
		{`a.c`, "", false},
		{`[ab]`, "", false},
		{`(`, "", false},
	}
	for _, c := range cases {
		var got string
		ok := false
		if ast, err := regex.Parse(c.pat); err == nil {
			got, ok = literalOf(topLevelChildren(ast))
		}
		if ok != c.ok || got != c.want {
			t.Errorf("literalOf(%q) = %q,%v want %q,%v", c.pat, got, ok, c.want, c.ok)
		}
	}
}

// cancelOnWrite is a degrade-dump sink that cancels a context the moment the
// query degrades — between the failed hardware attempt and the software
// fallback.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (c cancelOnWrite) Write(p []byte) (int, error) { c.cancel(); return len(p), nil }

// A hardware attempt that fails gives its result BAT back to the shared
// region; only a successful query leaves one behind, and that one is the
// caller's.
func TestFailedAttemptsFreeResultBAT(t *testing.T) {
	live := func(s *System) int64 { return s.Tel.Gauge("shmem.live_bytes").Value() }

	t.Run("shed dispatch", func(t *testing.T) {
		s := newSystem(t)
		defer s.Close()
		tbl, _ := loadTable(t, s, 5_000, workload.HitQ1, 0.2)
		col, _ := tbl.Column("address_string")
		before := live(s)
		s.HAL.SetAdmission(hal.AdmissionLimits{MaxBytes: 1, Policy: hal.PolicyShed})
		if _, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err == nil {
			t.Fatal("over-cap exec did not error")
		}
		if got := live(s); got != before {
			t.Errorf("shmem.live_bytes = %d after a shed query, want %d", got, before)
		}
	})

	t.Run("transient fault retried to success", func(t *testing.T) {
		in := faults.New(faults.Options{DropEnabled: true, DropEngine: 0, DropAfter: 1, DropRecover: 2})
		s := newSingleEngineSystem(t, in)
		defer s.Close()
		tbl, _ := loadTable(t, s, 5_000, workload.HitQ2, 0.2)
		col, _ := tbl.Column("address_string")
		warm, err := s.Exec(context.Background(), col.Strs, workload.Q2, token.Options{})
		if err != nil {
			t.Fatalf("warm query: %v", err)
		}
		warm.Matches.Free()
		before := live(s)
		res, err := s.Exec(context.Background(), col.Strs, workload.Q2, token.Options{})
		if err != nil {
			t.Fatalf("retried query: %v", err)
		}
		if s.Tel.Counter("core.retry.attempts").Value() == 0 {
			t.Fatal("query did not retry")
		}
		res.Matches.Free()
		if got := live(s); got != before {
			t.Errorf("shmem.live_bytes = %d after a retried query and freeing its result, want %d", got, before)
		}
	})

	t.Run("canceled degraded fallback", func(t *testing.T) {
		in := faults.New(faults.Options{DropEnabled: true, DropEngine: 0})
		s := newFaultySystem(t, in)
		defer s.Close()
		tbl, _ := loadTable(t, s, 10_000, workload.HitQ2, 0.2)
		col, _ := tbl.Column("address_string")
		before := live(s)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Rec.SetSink(cancelOnWrite{cancel})
		if _, err := s.Exec(ctx, col.Strs, workload.Q2, token.Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := s.Tel.Counter("core.fallback.software").Value(); got != 1 {
			t.Fatalf("core.fallback.software = %d, want 1", got)
		}
		if got := live(s); got != before {
			t.Errorf("shmem.live_bytes = %d after a canceled fallback, want %d", got, before)
		}
	})
}
