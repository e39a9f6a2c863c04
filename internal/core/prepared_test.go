package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"doppiodb/internal/config"
	"doppiodb/internal/fpga"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// qhWide is the benchmark's hybrid query: QH with a tail wide enough to
// exceed the default device.
const qhWide = `(Strasse|Str\.).*(8[0-9]{4}).*(delivery|pickup)`

// The prepared pattern carries what the separate stages compute — token
// program, capacity verdict, config vector — and the hybrid split pinned to
// what SplitPattern returned before it became a read of the artifact, on
// both devices and under both collations; and the cost model prices an
// artifact exactly as it prices the pattern text.
func TestPreparedPatternMatchesStages(t *testing.T) {
	const qhPrefix = `(Strasse|Str\.).*8[0-9]{4}`
	cases := []struct {
		pattern string
		// hw/sw is the split where the pattern is over capacity on the
		// default (0) and the 8-state/24-char (1) device; both empty with
		// over set means ErrCannotSplit.
		over   [2]bool
		hw, sw string
	}{
		{pattern: workload.Q1Regex},
		{pattern: workload.Q2},
		{pattern: workload.Q3},
		{pattern: workload.Q4},
		{pattern: workload.QH, over: [2]bool{false, true}, hw: qhPrefix, sw: `delivery`},
		{pattern: qhWide, over: [2]bool{true, true}, hw: qhPrefix, sw: `(delivery|pickup)`},
		{pattern: `[A-Za-z]{9}[0-9]{9}[a-z]{9}`, over: [2]bool{true, true}},
	}
	small := fpga.DefaultDeployment()
	small.Limits = config.Limits{MaxStates: 8, MaxChars: 24}
	for d, dep := range []*fpga.Deployment{nil, &small} {
		s, err := NewSystem(Options{Deployment: dep, RegionBytes: 1 << 26})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		lim := s.Device.Deployment.Limits
		for _, c := range cases {
			byPattern, err := s.ExplainCost(c.pattern, 100_000, 64)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(byPattern)
			if err != nil {
				t.Fatal(err)
			}
			for _, fold := range []bool{false, true} {
				opts := token.Options{FoldCase: fold}
				p, err := preparePattern(c.pattern, opts, lim)
				if err != nil {
					t.Fatalf("%q: %v", c.pattern, err)
				}
				ref, err := token.CompilePattern(c.pattern, token.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if p.prog.NumStates() != ref.NumStates() || p.prog.NumChars() != ref.NumChars() {
					t.Errorf("%q fold=%v: %d states / %d chars, want %d / %d", c.pattern, fold,
						p.prog.NumStates(), p.prog.NumChars(), ref.NumStates(), ref.NumChars())
				}
				if fits := config.Fits(ref, lim) == nil; p.fits != fits || fits == c.over[d] {
					t.Errorf("%q fold=%v device %d: fits %v, config.Fits says %v, table says over=%v",
						c.pattern, fold, d, p.fits, fits, c.over[d])
				}
				var vec []byte
				if p.fits {
					folded, _ := token.CompilePattern(c.pattern, opts)
					if vec, err = config.Encode(folded, lim); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(p.vec, vec) {
					t.Errorf("%q fold=%v: config vector differs from config.Encode", c.pattern, fold)
				}
				hw, sw, splitErr := SplitPattern(c.pattern, lim, opts)
				switch {
				case !c.over[d]:
					if hw != c.pattern || sw != "" || splitErr != nil {
						t.Errorf("%q fits but splits %q / %q (%v)", c.pattern, hw, sw, splitErr)
					}
				case c.hw == "":
					if splitErr != ErrCannotSplit || p.splitErr != ErrCannotSplit {
						t.Errorf("%q: split err %v / %v, want ErrCannotSplit", c.pattern, splitErr, p.splitErr)
					}
				default:
					if hw != c.hw || sw != c.sw || p.hwPat != c.hw || p.swPat != c.sw {
						t.Errorf("%q: split %q / %q, artifact %q / %q, want %q / %q",
							c.pattern, hw, sw, p.hwPat, p.swPat, c.hw, c.sw)
					}
					if lit := p.tailLit != ""; lit != (c.sw == `delivery` && !fold) || lit == (p.tail != nil) {
						t.Errorf("%q fold=%v: tail literal %q, backtracker %v", c.pattern, fold, p.tailLit, p.tail != nil)
					}
				}
				byArtifact, err := s.explainPrepared(p, 100_000, 64)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := json.Marshal(byArtifact); !bytes.Equal(got, want) {
					t.Errorf("%q fold=%v: ExplainCost by artifact\n%s\nby pattern\n%s", c.pattern, fold, got, want)
				}
			}
		}
	}
}

// After a config-cache hit Exec does no work that is a fact about the
// pattern: no parse, compile, split, tail-matcher construction, and above
// all no 64-row software probe (≈ 47 000 objects a query before patterns
// were prepared once).
func TestWarmExecDoesNoPatternWork(t *testing.T) {
	for _, c := range []struct {
		name, pattern string
		kind          workload.HitKind
	}{
		{"direct", workload.Q2, workload.HitQ2},
		// No row carries the prefix, so the hybrid does no tail work.
		{"hybrid", qhWide, workload.HitNone},
	} {
		s := newSystem(t)
		defer s.Close()
		tbl, _ := loadTable(t, s, 64, c.kind, 0.5)
		col, _ := tbl.Column("address_string")
		run := func() {
			res, err := s.Exec(context.Background(), col.Strs, c.pattern, token.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Hybrid != (c.name == "hybrid") {
				t.Fatalf("%s: ran hybrid=%v", c.name, res.Hybrid)
			}
			res.Matches.Free()
		}
		run() // fill the config cache and the probe store
		if allocs := testing.AllocsPerRun(10, run); allocs >= 2000 {
			t.Errorf("%s: a warm Exec allocates %.0f objects, want < 2000", c.name, allocs)
		}
	}
}

// One prepared pattern serves concurrent queries: the artifact, its probe
// store and its tail matcher are shared by every Exec of the pattern.
func TestConcurrentExecsSharePreparedPattern(t *testing.T) {
	s := newSystem(t)
	defer s.Close()
	tbl, _ := loadTable(t, s, 2_000, workload.HitQH, 0.3)
	col, _ := tbl.Column("address_string")
	patterns := []string{workload.Q2, qhWide}
	var want [2]int
	for i, p := range patterns {
		ref, err := token.CompilePattern(p, token.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < col.Strs.Count(); r++ {
			if ref.Match(col.Strs.Get(r)) != 0 {
				want[i]++
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % 2
				res, err := s.Exec(context.Background(), col.Strs, patterns[i], token.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if res.MatchCount != want[i] || res.Hybrid != (i == 1) {
					t.Errorf("%q: %d matches (hybrid %v), want %d", patterns[i], res.MatchCount, res.Hybrid, want[i])
				}
				res.Matches.Free()
			}
		}(g)
	}
	wg.Wait()
}

// The cost probe's step counts at the planner's usual key, captured from
// the closure-CPS backtracker with per-pattern row synthesis: every
// software estimate scales from these, so they may not move. The rows
// behind them are synthesized once per length and the store stays bounded.
func TestProbeStepsPinnedAndRowsShared(t *testing.T) {
	s, err := NewSystem(Options{RegionBytes: 1 << 26})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, c := range []struct {
		pattern         string
		steps, steps100 uint64
	}{
		{workload.Q1Regex, 66610, 13008},
		{workload.Q2, 199780, 39016},
		{workload.Q3, 172864, 33756},
		{workload.Q4, 132880, 26037},
		{workload.QH, 199780, 39016},
	} {
		p, err := preparePattern(c.pattern, token.Options{}, config.DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second read is the artifact's memo
			if got, err := p.probeSteps(64, s.probeInput(64)); err != nil || got != c.steps {
				t.Errorf("%q: probe over (64, 512) = %d, %v; want %d", c.pattern, got, err, c.steps)
			}
		}
		if got, _ := p.probeSteps(64, s.probeInput(64)[:100]); got != c.steps100 {
			t.Errorf("%q: probe over (64, 100) = %d, want %d", c.pattern, got, c.steps100)
		}
	}
	if a, b := s.probeInput(64), s.probeInput(64); len(a) != probeRows || &a[0] != &b[0] {
		t.Error("probe rows of one length were synthesized twice")
	}
	for l := 1; l <= 3*maxProbeInputs; l++ {
		s.probeInput(l)
	}
	if len(s.probeInputs) > maxProbeInputs {
		t.Errorf("probe row store holds %d lengths, bound %d", len(s.probeInputs), maxProbeInputs)
	}
}
