package strmatch

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBoyerMooreFind(t *testing.T) {
	cases := []struct {
		needle, hay string
		from, want  int
	}{
		{"Strasse", "Koblenzer Strasse 44", 0, 10},
		{"Strasse", "Koblenzer Strasse 44", 11, -1},
		{"abc", "abc", 0, 0},
		{"abc", "ababc", 0, 2},
		{"aaa", "aaaa", 0, 0},
		{"aaa", "aaaa", 1, 1},
		{"x", "", 0, -1},
		{"", "abc", 1, 1},
		{"", "abc", 5, -1},
		{"needle", "haystack", 0, -1},
		{"ana", "banana", 0, 1},
	}
	for _, c := range cases {
		bm := NewBoyerMoore([]byte(c.needle), false)
		if got := bm.Find([]byte(c.hay), c.from); got != c.want {
			t.Errorf("BM(%q).Find(%q,%d) = %d, want %d", c.needle, c.hay, c.from, got, c.want)
		}
	}
}

func TestBoyerMooreFold(t *testing.T) {
	bm := NewBoyerMoore([]byte("StrASSE"), true)
	if got := bm.Find([]byte("koblenzer strasse"), 0); got != 10 {
		t.Errorf("folded find = %d, want 10", got)
	}
	if !bm.Contains([]byte("STRASSE")) {
		t.Error("folded Contains failed")
	}
}

func TestBoyerMooreSkips(t *testing.T) {
	// On a long haystack with no needle characters, BM must examine far
	// fewer bytes than the haystack length — the reason it beats KMP.
	bm := NewBoyerMoore([]byte("Strasse"), false)
	hay := bytes.Repeat([]byte("x"), 10000)
	bm.Find(hay, 0)
	if c := bm.Comparisons(); c > 2500 {
		t.Errorf("BM made %d comparisons on 10000 bytes; should skip", c)
	}
}

func TestKMPFind(t *testing.T) {
	cases := []struct {
		needle, hay string
		from, want  int
	}{
		{"Strasse", "Koblenzer Strasse 44", 0, 10},
		{"abab", "aababab", 0, 1},
		{"aaa", "aaaa", 1, 1},
		{"", "abc", 2, 2},
		{"zz", "zaz", 0, -1},
	}
	for _, c := range cases {
		k := NewKMP([]byte(c.needle), false)
		if got := k.Find([]byte(c.hay), c.from); got != c.want {
			t.Errorf("KMP(%q).Find(%q,%d) = %d, want %d", c.needle, c.hay, c.from, got, c.want)
		}
	}
	k := NewKMP([]byte("abc"), true)
	if !k.Contains([]byte("xxABCxx")) {
		t.Error("folded KMP failed")
	}
}

func TestBMandKMPAgreeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	alphabet := []byte("abAB")
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return b
	}
	for i := 0; i < 2000; i++ {
		needle := randBytes(r.Intn(5) + 1)
		hay := randBytes(r.Intn(40))
		fold := r.Intn(2) == 0
		from := r.Intn(len(hay) + 1)
		bm := NewBoyerMoore(needle, fold).Find(hay, from)
		km := NewKMP(needle, fold).Find(hay, from)
		if bm != km {
			t.Fatalf("needle=%q hay=%q from=%d fold=%v: BM=%d KMP=%d",
				needle, hay, from, fold, bm, km)
		}
		// Oracle: bytes.Index on folded copies.
		n2, h2 := needle, hay
		if fold {
			n2, h2 = bytes.ToLower(needle), bytes.ToLower(hay)
		}
		want := bytes.Index(h2[from:], n2)
		if want >= 0 {
			want += from
		}
		if bm != want {
			t.Fatalf("needle=%q hay=%q from=%d fold=%v: BM=%d oracle=%d",
				needle, hay, from, fold, bm, want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, in string
		want    bool
	}{
		{`%Strasse%`, "Koblenzer Strasse 44", true},
		{`%Strasse%`, "Koblenzer Weg 44", false},
		{`%Alan%Turing%Cheshire%`, "x Alan y Turing z Cheshire w", true},
		{`%Alan%Turing%Cheshire%`, "x Turing y Alan z Cheshire w", false},
		{`abc`, "abc", true},
		{`abc`, "abcd", false},
		{`abc%`, "abcd", true},
		{`abc%`, "xabc", false},
		{`%abc`, "xabc", true},
		{`%abc`, "abcx", false},
		{`a_c`, "abc", true},
		{`a_c`, "ac", false},
		{`a_c`, "abbc", false},
		{`a%c`, "ac", true},
		{`a%c`, "abbbc", true},
		{`a%c`, "abbbd", false},
		{`%`, "", true},
		{`%`, "anything", true},
		{``, "", true},
		{``, "x", false},
		{`%%`, "x", true},
		{`\%`, "%", true},
		{`\%`, "x", false},
		{`100\%%`, "100% sure", true},
		{`_`, "a", true},
		{`_`, "", false},
		{`_`, "ab", false},
		{`%a_c%`, "zzabczz", true},
		{`%ab%b`, "ab", false},
		{`%ab%b`, "abb", true},
		{`a%bc`, "abc", true},
		{`%special%requests%`, "this order has special delivery requests attached", true},
	}
	for _, c := range cases {
		p, err := CompileLike(c.pat, false)
		if err != nil {
			t.Fatalf("CompileLike(%q): %v", c.pat, err)
		}
		if got := p.MatchString(c.in); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pat, c.in, got, c.want)
		}
	}
}

func TestILike(t *testing.T) {
	p, err := CompileLike(`%special%Requests%`, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.MatchString("SPECIAL delivery REQUESTS") {
		t.Error("ILIKE should fold case")
	}
	if !p.FoldCase() {
		t.Error("FoldCase not recorded")
	}
}

func TestLikeBadEscape(t *testing.T) {
	if _, err := CompileLike(`abc\`, false); err != ErrBadEscape {
		t.Errorf("err = %v, want ErrBadEscape", err)
	}
}

// likeRef is an exponential but obviously-correct LIKE matcher used as the
// property-test oracle.
func likeRef(pat, s string, fold bool) bool {
	if fold {
		pat, s = string(bytes.ToLower([]byte(pat))), string(bytes.ToLower([]byte(s)))
	}
	var rec func(pi, si int) bool
	rec = func(pi, si int) bool {
		if pi == len(pat) {
			return si == len(s)
		}
		switch pat[pi] {
		case '%':
			for k := si; k <= len(s); k++ {
				if rec(pi+1, k) {
					return true
				}
			}
			return false
		case '_':
			return si < len(s) && rec(pi+1, si+1)
		case '\\':
			if pi+1 >= len(pat) {
				return false
			}
			return si < len(s) && s[si] == pat[pi+1] && rec(pi+2, si+1)
		default:
			return si < len(s) && s[si] == pat[pi] && rec(pi+1, si+1)
		}
	}
	return rec(0, 0)
}

func TestLikeAgainstReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	patAlpha := []byte("ab%_")
	inAlpha := []byte("abAB")
	for i := 0; i < 3000; i++ {
		pb := make([]byte, r.Intn(8))
		for j := range pb {
			pb[j] = patAlpha[r.Intn(len(patAlpha))]
		}
		pat := string(pb)
		in := make([]byte, r.Intn(12))
		for j := range in {
			in[j] = inAlpha[r.Intn(len(inAlpha))]
		}
		fold := r.Intn(2) == 0
		p, err := CompileLike(pat, fold)
		if err != nil {
			t.Fatalf("CompileLike(%q): %v", pat, err)
		}
		got := p.Match(in)
		want := likeRef(pat, string(in), fold)
		if got != want {
			t.Fatalf("LIKE %q on %q fold=%v: got %v, want %v", pat, in, fold, got, want)
		}
	}
}

func BenchmarkBoyerMooreAddress(b *testing.B) {
	bm := NewBoyerMoore([]byte("Strasse"), false)
	hay := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
	b.SetBytes(int64(len(hay)))
	for i := 0; i < b.N; i++ {
		bm.Find(hay, 0)
	}
}

func BenchmarkKMPAddress(b *testing.B) {
	k := NewKMP([]byte("Strasse"), false)
	hay := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
	b.SetBytes(int64(len(hay)))
	for i := 0; i < b.N; i++ {
		k.Find(hay, 0)
	}
}
