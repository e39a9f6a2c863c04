package pu

import (
	"math/rand"
	"strings"
	"testing"

	"doppiodb/internal/config"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

func mustUnit(t *testing.T, pat string, opts token.Options) *Unit {
	t.Helper()
	prog, err := token.CompilePattern(pat, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", pat, err)
	}
	u, err := New(prog)
	if err != nil {
		t.Fatalf("New(%q): %v", pat, err)
	}
	return u
}

func TestMatchPaperQueries(t *testing.T) {
	cases := []struct {
		pat, in string
		want    uint16
	}{
		{`Strasse`, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt", 31},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Meier|Str. 5|80331|Muenchen", 18},
		{`(Strasse|Str\.).*(8[0-9]{4})`, "Meier|Weg 5|80331|Muenchen", 0},
		{`[0-9]+(USD|EUR|GBP)`, "invoice 250EUR due", 14},
		{`[A-Za-z]{3}\:[0-9]{4}`, "code XYZ:9911 sent", 13},
		{`(a|b).*c`, "zzazzc", 6},
		{`(a|b).*c`, "zczz", 0},
	}
	for _, c := range cases {
		u := mustUnit(t, c.pat, token.Options{})
		if got := u.MatchString(c.in); got != c.want {
			t.Errorf("PU %q on %q = %d, want %d", c.pat, c.in, got, c.want)
		}
	}
}

// checkAgainstReference compares one Match call with the reference
// interpreter: the saturated position, and the cycles charged for it.
func checkAgainstReference(t *testing.T, prog *token.Program, u *Unit, in []byte) {
	t.Helper()
	want := prog.Match(in)
	wantBytes := uint64(want)
	if want == 0 {
		wantBytes = uint64(len(in))
	}
	u.stats = Stats{}
	got := u.Match(in)
	if got != satPos(want) {
		t.Fatalf("pattern %q fold=%v input %q: pu=%d reference=%d", prog.Source, prog.FoldCase, in, got, want)
	}
	if st := u.Stats(); st.Bytes != wantBytes || st.Strings != 1 || st.Matches != uint64(min(want, 1)) {
		t.Fatalf("pattern %q fold=%v input %q: stats %+v, want Bytes=%d Matches=%d",
			prog.Source, prog.FoldCase, in, st, wantBytes, min(want, 1))
	}
}

func TestBitParallelMatchesReference(t *testing.T) {
	// The bit-parallel circuit model must agree byte-for-byte with the
	// slow reference interpreter on random patterns and inputs.
	r := rand.New(rand.NewSource(5))
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
	// Short dense inputs exercise the state graph; long ones that are
	// mostly filler exercise the idle skip and the wake-up after it.
	const symbols = "abcxABC|8 "
	input := func() []byte {
		n, filler := r.Intn(18), 0
		if r.Intn(3) == 0 {
			n, filler = r.Intn(400), r.Intn(100)
		}
		in := make([]byte, n)
		for j := range in {
			in[j] = 'x'
			if r.Intn(100) >= filler {
				in[j] = symbols[r.Intn(len(symbols))]
			}
		}
		return in
	}
	tested := 0
	for i := 0; i < 500; i++ {
		pat := build(3)
		if r.Intn(4) == 0 {
			pat = "^" + pat
		}
		if r.Intn(4) == 0 {
			pat = pat + "$"
		}
		prog, err := token.CompilePattern(pat, token.Options{FoldCase: r.Intn(2) == 0})
		if err != nil {
			continue
		}
		u, err := New(prog)
		if err != nil {
			continue
		}
		tested++
		for k := 0; k < 25; k++ {
			checkAgainstReference(t, prog, u, input())
		}
	}
	if tested < 200 {
		t.Fatalf("only %d patterns tested", tested)
	}
}

func FuzzMatchAgainstReference(f *testing.F) {
	patterns := []string{
		workload.Q1Regex, workload.Q2, workload.Q3, workload.Q4, workload.QH,
		`^abc`,                // entryAlways == 0: idle for good after offset 0
		`^Str.*8[0-9]$`,       // both anchors around a hold
		`a.*$`,                // held accept at end of string
		`Weg$`,                // accept only on the last byte
		`(Str\.|Strasse)`,     // shared prefix, two chain lengths
		`(Herr |Frau )?Smith`, // optional prefix
		`(ab)+c`,
		`zq`,
	}
	row := "John|Smith|44 Koblenzer Strasse|80331|Muenchen|250EUR|XYZ:9911|delivery"
	inputs := []string{
		"",
		"abc",
		"xabc",
		row,
		// >= 256 B: the wake-up byte is rare, then a near miss re-arms the
		// chain while it is still in flight.
		strings.Repeat("Anna|Miller|9 Lindenweg|60327|Frankfurt am Main|", 6) + "StrasStrasse 81000 delivery",
		strings.Repeat(".", 300) + "StrStr. StraStrasse 8123 88123",
		strings.Repeat("Weg ", 80) + "a",
		strings.Repeat("ab", 150) + "c",
		strings.ToUpper(row) + strings.Repeat(" ", 256) + row,
	}
	for _, pat := range patterns {
		for _, in := range inputs {
			f.Add(pat, []byte(in), false)
			f.Add(pat, []byte(in), true)
		}
	}
	// Past 65535 the position saturates; the cycle count does not.
	long := strings.Repeat("x", 70_000)
	f.Add(`zq`, []byte(long+"zq"), false)
	f.Add(`^x.*q$`, []byte(long+"zq"), false)
	f.Add(workload.Q2, []byte(long+row), true)

	f.Fuzz(func(t *testing.T, pat string, in []byte, fold bool) {
		prog, err := token.CompilePattern(pat, token.Options{FoldCase: fold})
		if err != nil {
			t.Skip()
		}
		u, err := New(prog)
		if err != nil {
			t.Skip()
		}
		checkAgainstReference(t, prog, u, in)
	})
}

func TestConfigVectorToUnit(t *testing.T) {
	// Full path: pattern -> config vector -> decode -> PU, as the HAL
	// does in step 7 of Figure 3.
	prog, err := token.CompilePattern(`(Strasse|Str\.).*(8[0-9]{4})`, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := config.Encode(prog, config.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := config.Decode(vec)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.MatchString("Haupt Strasse 81000"); got != 19 {
		t.Errorf("decoded PU match = %d, want 19", got)
	}
}

func TestStats(t *testing.T) {
	u := mustUnit(t, `abc`, token.Options{})
	u.MatchString("xxabc")   // match at 5, consumes 5 bytes
	u.MatchString("zzzz")    // no match, 4 bytes
	u.MatchString("abcdefg") // match at 3, early exit after 3 bytes
	s := u.Stats()
	if s.Strings != 3 {
		t.Errorf("Strings = %d", s.Strings)
	}
	if s.Matches != 2 {
		t.Errorf("Matches = %d", s.Matches)
	}
	if s.Bytes != 5+4+3 {
		t.Errorf("Bytes = %d, want 12", s.Bytes)
	}
}

func TestCapacityErrors(t *testing.T) {
	// 33 alternation branches exceed MaxTokens.
	parts := make([]string, 33)
	for i := range parts {
		parts[i] = strings.Repeat(string(rune('a'+i%26)), 1)
	}
	prog, err := token.CompilePattern("("+strings.Join(parts, "|")+")x", token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog); err != ErrTooManyTokens {
		t.Errorf("want ErrTooManyTokens, got %v", err)
	}
	// One token of 70 chained matchers exceeds the chain capacity.
	prog, err = token.CompilePattern(strings.Repeat("a", 70), token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog); err != ErrChainTooLong {
		t.Errorf("want ErrChainTooLong, got %v", err)
	}
}

func TestSaturatedPosition(t *testing.T) {
	u := mustUnit(t, `zq`, token.Options{})
	in := strings.Repeat("x", 70000) + "zq"
	if got := u.Match([]byte(in)); got != 0xFFFF {
		t.Errorf("saturated position = %d, want 65535", got)
	}
}

func TestFoldCaseCollation(t *testing.T) {
	// §6.4: collation has no effect on performance, only on the hit
	// table, and must match case-insensitively.
	u := mustUnit(t, `(blue|gray).*skies`, token.Options{FoldCase: true})
	if got := u.MatchString("GRAY autumn SKIES"); got != 17 {
		t.Errorf("collation match = %d, want 17", got)
	}
	u2 := mustUnit(t, `(blue|gray).*skies`, token.Options{})
	if got := u2.MatchString("GRAY autumn SKIES"); got != 0 {
		t.Errorf("case-sensitive matched %d", got)
	}
}

func BenchmarkPUMatch64B(b *testing.B) {
	prog, _ := token.CompilePattern(`(Strasse|Str\.).*(8[0-9]{4})`, token.Options{})
	u, _ := New(prog)
	in := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Match(in)
	}
}
