package token

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

func compile(t *testing.T, pat string, opts Options) *Program {
	t.Helper()
	p, err := CompilePattern(pat, opts)
	if err != nil {
		t.Fatalf("CompilePattern(%q): %v", pat, err)
	}
	return p
}

func TestPaperExampleStateAndCharCounts(t *testing.T) {
	// §6 examples and §7.1.1 queries: the compacted token NFA must hit
	// the paper's resource accounting (states = tokens + end state).
	cases := []struct {
		pat    string
		states int
		chars  int
	}{
		// (a|b).*c: tokens a, b, c -> Figure 6's four states.
		{`(a|b).*c`, 4, 3},
		// (Blue|Gray).*skies: tokens Blue, Gray, skies.
		{`(Blue|Gray).*skies`, 4, 13},
		// Q1 as a regex: one token.
		{`Strasse`, 2, 7},
		// Q2: tokens Strasse, Str., 8[0-9]{4}.
		{`(Strasse|Str\.).*(8[0-9]{4})`, 4, 7 + 4 + 1 + 4*2},
		// Q3: tokens [0-9]+, USD, EUR, GBP.
		{`[0-9]+(USD|EUR|GBP)`, 5, 2 + 9},
		// Q4: one token of 3 class + ':' + 4 class matchers.
		{`[A-Za-z]{3}\:[0-9]{4}`, 2, 3*4 + 1 + 4*2},
	}
	for _, c := range cases {
		p := compile(t, c.pat, Options{})
		if got := p.NumStates(); got != c.states {
			t.Errorf("%q: NumStates = %d, want %d", c.pat, got, c.states)
		}
		if got := p.NumChars(); got != c.chars {
			t.Errorf("%q: NumChars = %d, want %d", c.pat, got, c.chars)
		}
	}
}

func TestGapHoldSavesStates(t *testing.T) {
	with := compile(t, `(a|b).*c`, Options{})
	without := compile(t, `(a|b).*c`, Options{NoGapHold: true})
	if with.NumStates() >= without.NumStates() {
		t.Errorf("gap-hold should save states: with=%d without=%d",
			with.NumStates(), without.NumStates())
	}
	if without.MaterializedGaps != 1 {
		t.Errorf("MaterializedGaps = %d, want 1", without.MaterializedGaps)
	}
}

func TestMatchBasics(t *testing.T) {
	cases := []struct {
		pat, in string
		want    int // 1-based end position, 0 = no match
	}{
		{`abc`, "abc", 3},
		{`abc`, "xxabcxx", 5},
		{`abc`, "abd", 0},
		{`abc`, "", 0},
		{`(a|b).*c`, "a123c", 5},
		{`(a|b).*c`, "bc", 2},
		{`(a|b).*c`, "ac", 2},
		{`(a|b).*c`, "cab", 0},
		{`(a|b).*c`, "xxxaxxxcxx", 8},
		{`Strasse`, "Koblenzer Strasse 44", 17},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Hauptstrasse 81234", 0}, // case-sensitive
		{`(Strasse|Str\.).*(8[0-9]{4})`, "HauptStrasse 81234", 18},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Str. 80001 Munich", 10},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Str. 70001", 0},
		{`[0-9]+(USD|EUR|GBP)`, "pay 100USD now", 10},
		{`[0-9]+(USD|EUR|GBP)`, "pay USD now", 0},
		{`[0-9]+(USD|EUR|GBP)`, "5EUR", 4},
		{`[A-Za-z]{3}\:[0-9]{4}`, "ref ABC:1234 ok", 12},
		{`[A-Za-z]{3}\:[0-9]{4}`, "AB:1234", 0},
		{`[A-Za-z]{3}\:[0-9]{4}`, "xABCD:1234", 10}, // BCD:1234 matches
		{`a+b`, "aaab", 4},
		{`a+b`, "b", 0},
		{`(ab)+c`, "ababc", 5},
		{`(ab)+c`, "abc", 3},
		{`(ab)+c`, "ac", 0},
		{`a?b`, "b", 1},
		{`a?b`, "ab", 2},
		{`a.c`, "abc", 3},
		{`a.c`, "ac", 0},
		{`a.*`, "xxaxx", 3}, // earliest end: as soon as `a` fires
		{`.*a`, "xxa", 3},
		{`a{2,3}b`, "aab", 3},
		{`a{2,3}b`, "ab", 0},
		{`a{2,3}b`, "aaaab", 5},
		{`[^0-9]x`, "3x ax", 5},
	}
	for _, c := range cases {
		for _, noGap := range []bool{false, true} {
			p := compile(t, c.pat, Options{NoGapHold: noGap})
			if got := p.MatchString(c.in); got != c.want {
				t.Errorf("Match(%q, %q) noGap=%v = %d, want %d",
					c.pat, c.in, noGap, got, c.want)
			}
		}
	}
}

func TestMatchAnchors(t *testing.T) {
	cases := []struct {
		pat, in string
		want    int
	}{
		{`^abc`, "abcde", 3},
		{`^abc`, "xabc", 0},
		{`abc$`, "xxabc", 5},
		{`abc$`, "abcx", 0},
		{`^abc$`, "abc", 3},
		{`^abc$`, "abcd", 0},
		{`^a.*c$`, "aXXc", 4},
		{`^a.*c$`, "aXXcX", 0},
		{`a.*$`, "xxaxx", 5}, // held accept at end of string
		{`a.*$`, "xxxxx", 0},
		{`^.*a`, "xxa", 3}, // leading gap keeps starts armed under ^
	}
	for _, c := range cases {
		for _, noGap := range []bool{false, true} {
			p := compile(t, c.pat, Options{NoGapHold: noGap})
			if got := p.MatchString(c.in); got != c.want {
				t.Errorf("Match(%q, %q) noGap=%v = %d, want %d",
					c.pat, c.in, noGap, got, c.want)
			}
		}
	}
	if _, err := CompilePattern(`a^b`, Options{}); err != ErrUnsupportedAnchor {
		t.Errorf("interior ^ err = %v", err)
	}
	if _, err := CompilePattern(`a$b`, Options{}); err != ErrUnsupportedAnchor {
		t.Errorf("interior $ err = %v", err)
	}
}

func TestMatchFoldCase(t *testing.T) {
	p := compile(t, `strasse`, Options{FoldCase: true})
	if got := p.MatchString("Koblenzer STRASSE"); got != 17 {
		t.Errorf("folded match = %d, want 17", got)
	}
	p = compile(t, `[a-f]+x`, Options{FoldCase: true})
	if got := p.MatchString("zzDEADBEEFx"); got != 11 {
		t.Errorf("folded class match = %d", got)
	}
}

func TestRejectEmptyMatching(t *testing.T) {
	for _, pat := range []string{`a*`, `a?`, `(a|b*)`, `a{0,3}`, `.*`} {
		if _, err := CompilePattern(pat, Options{}); err != ErrMatchesEmpty {
			t.Errorf("CompilePattern(%q) err = %v, want ErrMatchesEmpty", pat, err)
		}
	}
}

func TestNestedGapMaterialized(t *testing.T) {
	// `.*` inside an alternation branch must not use the hold shortcut:
	// a(b|.*c) must not match "aXb".
	p := compile(t, `a(b|.*c)`, Options{})
	if p.MaterializedGaps == 0 {
		t.Error("nested gap should be materialized")
	}
	if got := p.MatchString("aXb"); got != 0 {
		t.Errorf("a(b|.*c) matched %q at %d", "aXb", got)
	}
	if got := p.MatchString("ab"); got != 2 {
		t.Errorf("a(b|.*c) on ab = %d, want 2", got)
	}
	if got := p.MatchString("aXXc"); got != 4 {
		t.Errorf("a(b|.*c) on aXXc = %d, want 4", got)
	}
}

func TestTopLevelAltGetsGapHold(t *testing.T) {
	p := compile(t, `a.*b|cd`, Options{})
	if p.MaterializedGaps != 0 {
		t.Errorf("top-level alt branch gap should use hold, materialized=%d", p.MaterializedGaps)
	}
	if got := p.MatchString("aXXb"); got != 4 {
		t.Errorf("aXXb = %d", got)
	}
	if got := p.MatchString("xcdx"); got != 3 {
		t.Errorf("xcdx = %d", got)
	}
	if got := p.MatchString("axcb"); got != 4 {
		t.Errorf("axcb = %d", got)
	}
	if got := p.MatchString("cxd"); got != 0 {
		t.Errorf("cxd = %d, want 0", got)
	}
}

// randPattern builds a random valid pattern over a tiny alphabet, used by
// the equivalence properties below.
func randPattern(r *rand.Rand, depth int) string {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return "a"
		case 1:
			return "b"
		case 2:
			return "[ab]"
		default:
			return "c"
		}
	}
	switch r.Intn(8) {
	case 0:
		return randPattern(r, depth-1) + randPattern(r, depth-1)
	case 1:
		return "(" + randPattern(r, depth-1) + "|" + randPattern(r, depth-1) + ")"
	case 2:
		return "(" + randPattern(r, depth-1) + ")+"
	case 3:
		return "(" + randPattern(r, depth-1) + ")?" + randPattern(r, depth-1)
	case 4:
		return randPattern(r, depth-1) + ".*" + randPattern(r, depth-1)
	case 5:
		return "(" + randPattern(r, depth-1) + ")*" + randPattern(r, depth-1)
	default:
		return randPattern(r, depth-1)
	}
}

func randInput(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte("abcx"[r.Intn(4)])
	}
	return b.String()
}

func TestGapHoldEquivalenceProperty(t *testing.T) {
	// The hold shortcut and full materialization must produce identical
	// match positions on every input.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		pat := randPattern(r, 3)
		pWith, err1 := CompilePattern(pat, Options{})
		pWithout, err2 := CompilePattern(pat, Options{NoGapHold: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("compile disagreement for %q: %v vs %v", pat, err1, err2)
		}
		if err1 != nil {
			continue
		}
		for k := 0; k < 20; k++ {
			in := randInput(r, r.Intn(16))
			g1 := pWith.MatchString(in)
			g2 := pWithout.MatchString(in)
			if g1 != g2 {
				t.Fatalf("pattern %q input %q: hold=%d materialized=%d",
					pat, in, g1, g2)
			}
		}
	}
}

func TestOracleEquivalenceProperty(t *testing.T) {
	// Boolean match/no-match must agree with the standard library's
	// regexp engine (an independent oracle) on random patterns.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		pat := randPattern(r, 3)
		p, err := CompilePattern(pat, Options{})
		if err != nil {
			continue
		}
		oracle, err := regexp.Compile(`(?s)` + pat)
		if err != nil {
			t.Fatalf("oracle rejected %q: %v", pat, err)
		}
		for k := 0; k < 30; k++ {
			in := randInput(r, r.Intn(20))
			got := p.MatchString(in) != 0
			want := oracle.MatchString(in)
			if got != want {
				t.Fatalf("pattern %q input %q: token=%v oracle=%v",
					pat, in, got, want)
			}
		}
	}
}

func TestOracleEquivalenceAnchoredProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		pat := "^" + randPattern(r, 2) + "$"
		p, err := CompilePattern(pat, Options{})
		if err != nil {
			continue
		}
		oracle := regexp.MustCompile(`(?s)` + pat)
		for k := 0; k < 30; k++ {
			in := randInput(r, r.Intn(12))
			got := p.MatchString(in) != 0
			want := oracle.MatchString(in)
			if got != want {
				t.Fatalf("pattern %q input %q: token=%v oracle=%v",
					pat, in, got, want)
			}
		}
	}
}

func TestDesugarRepeat(t *testing.T) {
	p := compile(t, `a{3}`, Options{})
	// One token of 3 chained matchers.
	if len(p.Tokens) != 1 || p.Tokens[0].Len() != 3 {
		t.Fatalf("a{3} tokens: %+v", p.Tokens)
	}
	if got := p.MatchString("aaa"); got != 3 {
		t.Errorf("a{3} on aaa = %d", got)
	}
	if got := p.MatchString("aa"); got != 0 {
		t.Errorf("a{3} on aa = %d", got)
	}
	p = compile(t, `a{2,}b`, Options{})
	for in, want := range map[string]int{"aab": 3, "aaab": 4, "ab": 0} {
		if got := p.MatchString(in); got != want {
			t.Errorf("a{2,}b on %q = %d, want %d", in, got, want)
		}
	}
}
