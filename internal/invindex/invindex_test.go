package invindex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

var rows = []string{
	"Alan Turing visited the Cheshire cat",      // 0
	"Turing and Church in Cheshire",             // 1
	"Alan in Cheshire without Turing? no, with", // 2
	"nothing relevant here",                     // 3
	"Alan Turing Turing Alan",                   // 4
	"cheshire lowercase alan turing",            // 5
}

func TestSearchConjunction(t *testing.T) {
	ix := Build(rows, false)
	got, lookups, err := ix.Search("Alan & Turing & Cheshire")
	if err != nil {
		t.Fatal(err)
	}
	if lookups != 3 {
		t.Errorf("lookups = %d, want 3", lookups)
	}
	want := []uint32{0, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Search = %v, want %v", got, want)
	}
}

func TestSearchFoldCase(t *testing.T) {
	ix := Build(rows, true)
	got, _, err := ix.Search("ALAN & turing & Cheshire")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 2, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("folded Search = %v, want %v", got, want)
	}
}

func TestSearchMissingWord(t *testing.T) {
	ix := Build(rows, false)
	got, _, err := ix.Search("Alan & Nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Search = %v, want empty", got)
	}
}

func TestSearchSingleWord(t *testing.T) {
	ix := Build(rows, false)
	got, _, err := ix.Search("Church")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Search = %v, want [1]", got)
	}
}

func TestEmptyQuery(t *testing.T) {
	ix := Build(rows, false)
	if _, _, err := ix.Search("  &  & "); err != ErrEmptyQuery {
		t.Errorf("err = %v, want ErrEmptyQuery", err)
	}
}

func TestDuplicateWordsOnePosting(t *testing.T) {
	ix := Build(rows, false)
	st := ix.Stats()
	// Row 4 repeats Alan and Turing; postings must stay deduplicated.
	got, _, _ := ix.Search("Turing")
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate OID in postings: %v", got)
		}
	}
	if st.Rows != len(rows) {
		t.Errorf("Stats.Rows = %d", st.Rows)
	}
	if st.Words == 0 || st.Postings == 0 || st.FootprintB == 0 {
		t.Errorf("Stats empty: %+v", st)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("John|Smith|44 Koblenzer Strasse|60327|Frankfurt", false)
	want := []string{"John", "Smith", "44", "Koblenzer", "Strasse", "60327", "Frankfurt"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Tokenize = %v", got)
	}
	if got := Tokenize("", false); len(got) != 0 {
		t.Errorf("Tokenize(empty) = %v", got)
	}
	if got := Tokenize("Hello", true); got[0] != "hello" {
		t.Errorf("folded Tokenize = %v", got)
	}
}

func TestSearchMatchesScanProperty(t *testing.T) {
	// Index search must return exactly the rows a naive scan finds.
	r := rand.New(rand.NewSource(31))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var data []string
	for i := 0; i < 300; i++ {
		var parts []string
		for w := 0; w < r.Intn(5); w++ {
			parts = append(parts, vocab[r.Intn(len(vocab))])
		}
		data = append(data, strings.Join(parts, " "))
	}
	ix := Build(data, false)
	for trial := 0; trial < 100; trial++ {
		k := r.Intn(3) + 1
		var qs []string
		for i := 0; i < k; i++ {
			qs = append(qs, vocab[r.Intn(len(vocab))])
		}
		got, _, err := ix.Search(strings.Join(qs, " & "))
		if err != nil {
			t.Fatal(err)
		}
		var want []uint32
	scan:
		for i, row := range data {
			words := map[string]bool{}
			for _, w := range Tokenize(row, false) {
				words[w] = true
			}
			for _, q := range qs {
				if !words[q] {
					continue scan
				}
			}
			want = append(want, uint32(i))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %v: index=%v scan=%v", qs, got, want)
		}
	}
}
