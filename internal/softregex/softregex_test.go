package softregex

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

func TestBacktrackerBasics(t *testing.T) {
	cases := []struct {
		pat, in string
		match   bool
	}{
		{`Strasse`, "Koblenzer Strasse 44", true},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Str. 80001 Muenchen", true},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Weg 80001 Muenchen", false},
		{`[0-9]+(USD|EUR|GBP)`, "pay 42GBP", true},
		{`[0-9]+(USD|EUR|GBP)`, "pay GBP", false},
		{`[A-Za-z]{3}\:[0-9]{4}`, "id abc:9999!", true},
		{`^abc$`, "abc", true},
		{`^abc$`, "xabc", false},
		{`a.*b.*c`, "azzbzzc", true},
		{`a.*b.*c`, "azzczzb", false},
	}
	for _, c := range cases {
		b, err := NewBacktracker(c.pat, false)
		if err != nil {
			t.Fatalf("compile %q: %v", c.pat, err)
		}
		pos, steps := b.MatchString(c.in)
		if (pos != 0) != c.match {
			t.Errorf("backtracker %q on %q: pos=%d, want match=%v", c.pat, c.in, pos, c.match)
		}
		if steps == 0 {
			t.Errorf("backtracker %q reported zero steps", c.pat)
		}
	}
}

func TestBacktrackerComplexityCost(t *testing.T) {
	// PCRE-like behaviour: a complex pattern with wildcards costs far
	// more steps than a plain literal on the same non-matching input —
	// the effect behind Table 1's LIKE vs REGEXP_LIKE gap.
	in := strings.Repeat("John|Smith|44 Koblenzer Weg|60327|", 2)
	lit, _ := NewBacktracker(`Strasse`, false)
	cplx, _ := NewBacktracker(`(Strasse|Str\.).*(8[0-9]{4}).*delivery`, false)
	_, s1 := lit.MatchString(in)
	_, s2 := cplx.MatchString(in)
	if s2 < 2*s1 {
		t.Errorf("complex pattern steps %d not ≫ literal steps %d", s2, s1)
	}
}

func TestThompsonPositions(t *testing.T) {
	cases := []struct {
		pat, in string
		want    int
	}{
		{`abc`, "xxabcy", 5},
		{`(a|b).*c`, "zazzc", 5},
		{`a+`, "xaaa", 2}, // earliest end
		{`^ab`, "ab", 2},
		{`^ab`, "xab", 0},
		{`ab$`, "xab", 3},
		{`ab$`, "abx", 0},
		{`a.*z$`, "a12z", 4},
	}
	for _, c := range cases {
		th, err := NewThompson(c.pat, false)
		if err != nil {
			t.Fatal(err)
		}
		pos, work := th.MatchString(c.in)
		if pos != c.want {
			t.Errorf("thompson %q on %q = %d, want %d", c.pat, c.in, pos, c.want)
		}
		if work == 0 {
			t.Errorf("thompson %q zero work", c.pat)
		}
	}
}

func TestDFAPositions(t *testing.T) {
	cases := []struct {
		pat, in string
		want    int
	}{
		{`abc`, "xxabcy", 5},
		{`(a|b).*c`, "zazzc", 5},
		{`ab$`, "xab", 3},
		{`ab$`, "abx", 0},
		{`^a.*z$`, "a12z", 4},
		{`^a.*z$`, "ba12z", 0},
	}
	for _, c := range cases {
		d, err := NewDFA(c.pat, false)
		if err != nil {
			t.Fatal(err)
		}
		pos, _, err := d.MatchString(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if pos != c.want {
			t.Errorf("dfa %q on %q = %d, want %d", c.pat, c.in, pos, c.want)
		}
	}
}

func TestDFAStateGrowth(t *testing.T) {
	// Determinizing an expression with interleaved wildcards builds
	// measurably more states than a literal — the state-explosion
	// tendency the paper cites as the DFA drawback.
	lit, _ := NewDFA(`Strasse`, false)
	cplx, _ := NewDFA(`(Strasse|Str\.).*(8[0-9]{4}).*(USD|EUR|GBP)`, false)
	inputs := []string{
		"John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
		"Meier|Str. 80001|Muenchen 100USD",
		"aaaaStrStrasse80000EUR",
	}
	for _, in := range inputs {
		lit.MatchString(in)
		cplx.MatchString(in)
	}
	if cplx.States() <= lit.States() {
		t.Errorf("complex DFA states %d not > literal %d", cplx.States(), lit.States())
	}
}

func TestEnginesAgreeProperty(t *testing.T) {
	// Backtracker (boolean), Thompson and DFA (positions) must agree
	// with the hardware token automaton on random patterns, and the
	// Backtracker with the reference interpreter on position and steps.
	r := rand.New(rand.NewSource(23))
	atoms := []string{"a", "b", "[ab]", "c", "."}
	var build func(d int) string
	build = func(d int) string {
		if d == 0 {
			return atoms[r.Intn(len(atoms))]
		}
		switch r.Intn(7) {
		case 0:
			return build(d-1) + build(d-1)
		case 1:
			return "(" + build(d-1) + "|" + build(d-1) + ")"
		case 2:
			return "(" + build(d-1) + ")+"
		case 3:
			return build(d-1) + ".*" + build(d-1)
		case 4:
			return "(" + build(d-1) + ")?" + build(d-1)
		default:
			return build(d - 1)
		}
	}
	for i := 0; i < 300; i++ {
		pat := build(3)
		if r.Intn(5) == 0 {
			pat = "^" + pat
		}
		if r.Intn(5) == 0 {
			pat += "$"
		}
		prog, err := token.CompilePattern(pat, token.Options{})
		if err != nil {
			continue // e.g. empty-matching patterns
		}
		bt, err := NewBacktracker(pat, false)
		if err != nil {
			t.Fatalf("backtracker %q: %v", pat, err)
		}
		ref, err := newRefBacktracker(pat, false)
		if err != nil {
			t.Fatalf("reference %q: %v", pat, err)
		}
		th, err := NewThompson(pat, false)
		if err != nil {
			t.Fatalf("thompson %q: %v", pat, err)
		}
		df, err := NewDFA(pat, false)
		if err != nil {
			t.Fatalf("dfa %q: %v", pat, err)
		}
		for k := 0; k < 25; k++ {
			var sb strings.Builder
			for j := 0; j < r.Intn(14); j++ {
				sb.WriteByte("abcx"[r.Intn(4)])
			}
			in := sb.String()
			want := prog.MatchString(in)
			btPos, btSteps := bt.MatchString(in)
			if refPos, refSteps, _ := ref.match([]byte(in), 1<<40); btPos != refPos || btSteps != refSteps {
				t.Fatalf("%q on %q: backtracker=(%d, %d steps) reference=(%d, %d steps)",
					pat, in, btPos, btSteps, refPos, refSteps)
			}
			thPos, _ := th.MatchString(in)
			dfPos, _, dfErr := df.MatchString(in)
			if dfErr != nil {
				t.Fatalf("dfa %q on %q: %v", pat, in, dfErr)
			}
			if (btPos != 0) != (want != 0) {
				t.Fatalf("%q on %q: backtracker=%d token=%d", pat, in, btPos, want)
			}
			if thPos != want {
				t.Fatalf("%q on %q: thompson=%d token=%d", pat, in, thPos, want)
			}
			if dfPos != want {
				t.Fatalf("%q on %q: dfa=%d token=%d", pat, in, dfPos, want)
			}
		}
	}
}

func TestFoldCaseEngines(t *testing.T) {
	for _, pat := range []string{`strasse`, `[a-f]+x`} {
		bt, _ := NewBacktracker(pat, true)
		th, _ := NewThompson(pat, true)
		df, _ := NewDFA(pat, true)
		in := "zzSTRASSEzzDEADBEEFXzz"
		p1, _ := bt.MatchString(in)
		p2, _ := th.MatchString(in)
		p3, _, _ := df.MatchString(in)
		if p1 == 0 || p2 == 0 || p3 == 0 {
			t.Errorf("folded %q: bt=%d th=%d dfa=%d", pat, p1, p2, p3)
		}
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	for _, mk := range []func() error{
		func() error { _, err := NewBacktracker(`(`, false); return err },
		func() error { _, err := NewThompson(`(`, false); return err },
		func() error { _, err := NewDFA(`(`, false); return err },
	} {
		if mk() == nil {
			t.Error("invalid pattern accepted")
		}
	}
}

// benchSink keeps the measured calls' results live.
var benchSink int

func BenchmarkBacktrackerComplex64B(b *testing.B) {
	// The miss row is the one the Thompson and DFA benchmarks below use;
	// the hit rows are the golden test's.
	const miss = "John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding.."
	for _, q := range []struct{ name, pat, row string }{
		{"q2/hit", workload.Q2, goldenInputs[1]},
		{"q2/miss", workload.Q2, miss},
		{"q3/hit", workload.Q3, goldenInputs[3]},
		{"q3/miss", workload.Q3, miss},
		{"q4/hit", workload.Q4, goldenInputs[4]},
		{"q4/miss", workload.Q4, miss},
	} {
		b.Run(q.name, func(b *testing.B) {
			bt, err := NewBacktracker(q.pat, false)
			if err != nil {
				b.Fatal(err)
			}
			in := []byte(q.row)
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pos, _ := bt.Match(in)
				benchSink += pos
			}
		})
	}
}

func BenchmarkThompsonComplex64B(b *testing.B) {
	th, _ := NewThompson(`(Strasse|Str\.).*(8[0-9]{4})`, false)
	in := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		th.Match(in)
	}
}

func BenchmarkDFAComplex64B(b *testing.B) {
	df, _ := NewDFA(`(Strasse|Str\.).*(8[0-9]{4})`, false)
	in := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		df.Match(in)
	}
}

func TestDFAExplosionFallback(t *testing.T) {
	// With a tiny state budget, determinization fails with
	// ErrDFAExploded and callers can fall back to the NFA.
	d, err := NewDFA(`(a|b).*(c|d).*(e|f)`, false)
	if err != nil {
		t.Fatal(err)
	}
	d.maxState = 2
	_, _, err = d.MatchString("abcdefabcdefabcdef")
	if err == nil {
		t.Fatal("no explosion with a 2-state budget")
	}
	if !errors.Is(err, ErrDFAExploded) {
		t.Errorf("err = %v, want ErrDFAExploded", err)
	}
	// The Thompson NFA handles the same input fine.
	th, _ := NewThompson(`(a|b).*(c|d).*(e|f)`, false)
	if pos, _ := th.MatchString("abcdefabcdef"); pos == 0 {
		t.Error("NFA fallback failed")
	}
}

func TestSourceAccessors(t *testing.T) {
	bt, _ := NewBacktracker(`ab`, false)
	th, _ := NewThompson(`ab`, false)
	d, _ := NewDFA(`ab`, false)
	if bt.Source() != "ab" || th.Source() != "ab" || d.Source() != "ab" {
		t.Error("Source accessors wrong")
	}
	if th.NumStates() <= 0 {
		t.Error("NumStates")
	}
}
