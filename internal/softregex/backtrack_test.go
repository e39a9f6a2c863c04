package softregex

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"doppiodb/internal/regex"
	"doppiodb/internal/workload"
)

// TestBacktrackerAgainstReferenceRandom drives checkAgainstReference with
// generated patterns that the fuzzer's byte mutations reach slowly: nested
// loops over nullable bodies, counted repetitions, anchors inside groups.
func TestBacktrackerAgainstReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	atoms := []string{"a", "b", "c", "[ab]", "[^c]", ".", "^", "$", `\.`, "x"}
	var build func(d int) string
	build = func(d int) string {
		if d == 0 {
			return atoms[r.Intn(len(atoms))]
		}
		sub := func() string { return build(d - 1) }
		switch r.Intn(10) {
		case 0:
			return sub() + sub()
		case 1:
			return "(" + sub() + "|" + sub() + ")"
		case 2:
			return "(" + sub() + ")*"
		case 3:
			return "(" + sub() + ")+"
		case 4:
			return "(" + sub() + ")?"
		case 5:
			lo := r.Intn(3)
			return "(" + sub() + "){" + string(rune('0'+lo)) + "," + string(rune('0'+lo+r.Intn(3))) + "}"
		case 6:
			return "(" + sub() + "){" + string(rune('0'+r.Intn(3))) + ",}"
		case 7:
			return sub() + ".*" + sub()
		case 8:
			return "(" + sub() + "|)"
		default:
			return sub()
		}
	}
	checked := 0
	for i := 0; i < 4000; i++ {
		pat := build(1 + r.Intn(4))
		fold := r.Intn(4) == 0
		for k := 0; k < 5; k++ {
			var sb strings.Builder
			for j := r.Intn(16); j > 0; j-- {
				sb.WriteByte("abcABx."[r.Intn(7)])
			}
			if checkAgainstReference(t, pat, []byte(sb.String()), fold) {
				checked++
			}
		}
	}
	// Anchors under a quantifier do not parse and exponential patterns run
	// out of budget; most pairs must still get through.
	t.Logf("compared %d pairs", checked)
	if checked < 10000 {
		t.Errorf("only %d of 20000 pairs were compared", checked)
	}
}

// TestBacktrackerHandBuiltNodes covers the node kinds the parser never
// produces: they must cost the steps the AST interpreter charges.
func TestBacktrackerHandBuiltNodes(t *testing.T) {
	lit := func(b byte) *regex.Node { return &regex.Node{Op: regex.OpLit, Lit: b} }
	cases := []struct {
		name string
		ast  *regex.Node
	}{
		{"alt with no branches", &regex.Node{Op: regex.OpConcat, Subs: []*regex.Node{
			{Op: regex.OpQuest, Subs: []*regex.Node{{Op: regex.OpAlt}}}, lit('a')}}},
		{"alt with one branch", &regex.Node{Op: regex.OpAlt, Subs: []*regex.Node{lit('a')}}},
		{"concat with no subs", &regex.Node{Op: regex.OpConcat}},
		{"stray repeat", &regex.Node{Op: regex.OpConcat, Subs: []*regex.Node{
			lit('x'), {Op: regex.OpRepeat, Min: 1, Max: 3, Subs: []*regex.Node{lit('a')}}, lit('b')}}},
		{"stray unbounded repeat of a nullable body", &regex.Node{Op: regex.OpRepeat, Min: 0, Max: -1,
			Subs: []*regex.Node{{Op: regex.OpQuest, Subs: []*regex.Node{lit('a')}}}}},
		{"unknown op", &regex.Node{Op: regex.Op(99)}},
	}
	for _, c := range cases {
		bt, err := compile(c.ast, c.name, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref := &refBacktracker{ast: c.ast}
		for _, in := range []string{"", "a", "xaab", "xb", "aaa", "zxaaab"} {
			wantPos, wantSteps, _ := ref.match([]byte(in), refBudget)
			if wantSteps == 0 {
				t.Fatalf("%s on %q: the reference counted no step", c.name, in)
			}
			if pos, steps := bt.MatchString(in); pos != wantPos || steps != wantSteps {
				t.Errorf("%s on %q: (pos, steps) = (%d, %d), reference (%d, %d)",
					c.name, in, pos, steps, wantPos, wantSteps)
			}
		}
	}
}

// TestBacktrackerConcurrentMatch is the mdb.scanStrings shape: workers
// share one Backtracker and must see what a single-goroutine pass sees.
func TestBacktrackerConcurrentMatch(t *testing.T) {
	g := workload.NewGenerator(3, 0)
	rows := g.MixedTable(2000, 0.2, workload.HitQ2, workload.HitQH, workload.HitQ3)
	for _, pat := range []string{qhPrime, `(([0-9])*|[A-Z]?)*USD`} {
		bt, err := NewBacktracker(pat, false)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			pos   int
			steps uint64
		}
		want := make([]result, len(rows))
		for i, row := range rows {
			want[i].pos, want[i].steps = bt.MatchString(row)
		}
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Overlapping strides: every row is matched by two workers.
				for i := w % 4; i < len(rows); i += 4 {
					if pos, steps := bt.MatchString(rows[i]); (result{pos, steps}) != want[i] {
						t.Errorf("%q row %d from worker %d: (%d, %d), single-goroutine pass %v",
							pat, i, w, pos, steps, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestBacktrackerStackRetention: a row that grows the backtrack stack past
// maxRetainedFrames must not leave that stack in the pool, and the matches
// after it must be unaffected.
func TestBacktrackerStackRetention(t *testing.T) {
	bt, err := NewBacktracker(`^(a|b)*c`, false)
	if err != nil {
		t.Fatal(err)
	}
	small := "abababc"
	wantPos, wantSteps := bt.MatchString(small)
	if wantPos != len(small) {
		t.Fatalf("pos = %d", wantPos)
	}
	// One frame per iteration: the single attempt holds 3×cap frames.
	huge := strings.Repeat("ab", 3*maxRetainedFrames/2)
	ref, _ := newRefBacktracker(`^(a|b)*c`, false)
	refPos, refSteps, _ := ref.match([]byte(huge[:600]), 1<<40)
	if pos, steps := bt.MatchString(huge[:600]); pos != refPos || steps != refSteps {
		t.Fatalf("600-byte row: (%d, %d), reference (%d, %d)", pos, steps, refPos, refSteps)
	}
	if pos, _ := bt.MatchString(huge); pos != 0 {
		t.Fatalf("pathological row matched at %d", pos)
	}
	for i := 0; i < 4; i++ {
		if st, _ := bt.states.Get().(*runState); st != nil && cap(st.stack) > maxRetainedFrames {
			t.Fatalf("pool retained a stack of %d frames (cap %d)", cap(st.stack), maxRetainedFrames)
		}
	}
	if pos, steps := bt.MatchString(small); pos != wantPos || steps != wantSteps {
		t.Errorf("after the pathological row: (%d, %d), before it (%d, %d)", pos, steps, wantPos, wantSteps)
	}
	if pos, _ := bt.MatchString(huge + "c"); pos != len(huge)+1 {
		t.Errorf("long matching row: pos = %d, want %d", pos, len(huge)+1)
	}
}

func TestBacktrackerRejectsOversizedProgram(t *testing.T) {
	if _, err := NewBacktracker(`((a{1000}){1000}){1000}`, false); err == nil {
		t.Fatal("a 10^9-instruction expansion compiled")
	}
	if _, err := NewBacktracker(`([a-z]{100}){100}`, false); err != nil {
		t.Errorf("a 10^4-instruction expansion was rejected: %v", err)
	}
}

// TestBacktrackerZeroAllocs: a warm matcher allocates nothing per match,
// through either entry point.
func TestBacktrackerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	row := "John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding.."
	for _, pat := range []string{workload.Q2, workload.Q3, workload.Q4, qhPrime, `(a?)*b`} {
		bt, err := NewBacktracker(pat, false)
		if err != nil {
			t.Fatal(err)
		}
		in := []byte(row)
		if n := testing.AllocsPerRun(100, func() { bt.Match(in) }); n != 0 {
			t.Errorf("%q: Match allocates %v times per call", pat, n)
		}
		if n := testing.AllocsPerRun(100, func() { bt.MatchString(row) }); n != 0 {
			t.Errorf("%q: MatchString allocates %v times per call", pat, n)
		}
	}
}
