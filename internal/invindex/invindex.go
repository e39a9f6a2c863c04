// Package invindex implements the word-level inverted index behind the
// CONTAINS operator (§1, §7.2). CONTAINS answers conjunctive keyword
// queries ('Alan & Turing & Cheshire') with posting-list intersection —
// fast at query time (Table 1's 0.033 s) but requiring the index to be
// built ahead of time, kept up to date (a rebuild takes >20 minutes for
// 2.5 M tuples in DBx), and it occupies memory that often exceeds the
// indexed text itself. Those costs motivate the paper's index-free FPGA
// scan; Stats exposes the footprint, and rowdb refuses a CONTAINS query on
// an index its table has outgrown.
package invindex

import (
	"errors"
	"sort"
	"strings"

	"doppiodb/internal/telemetry"
)

// Index is an inverted index over a string column. The zero value is not
// usable; call Build.
type Index struct {
	postings map[string][]uint32
	indexed  int  // rows covered by the index
	fold     bool // case-insensitive indexing

	// Query counters (detached telemetry instances; Search's lookups return
	// value is a view over them).
	searches *telemetry.Counter // Search calls
	probes   *telemetry.Counter // posting-list probes
}

// Stats describes the index footprint.
type Stats struct {
	Rows       int // rows covered
	Words      int // distinct words
	Postings   int // total posting entries
	FootprintB int // approximate memory footprint in bytes
}

// ErrEmptyQuery is returned for a CONTAINS query with no words.
var ErrEmptyQuery = errors.New("invindex: empty CONTAINS query")

// Build constructs the index over the given rows. Row i gets OID uint32(i).
func Build(rows []string, foldCase bool) *Index {
	ix := &Index{
		postings: make(map[string][]uint32),
		fold:     foldCase,
		searches: telemetry.NewCounter(),
		probes:   telemetry.NewCounter(),
	}
	for i, s := range rows {
		ix.addRow(uint32(i), s)
	}
	ix.indexed = len(rows)
	return ix
}

func (ix *Index) addRow(oid uint32, s string) {
	for _, w := range Tokenize(s, ix.fold) {
		pl := ix.postings[w]
		if n := len(pl); n > 0 && pl[n-1] == oid {
			continue // duplicate word in the same row
		}
		ix.postings[w] = append(ix.postings[w], oid)
	}
}

// AttachTelemetry publishes the index's query counters in reg under the
// invindex.* names.
func (ix *Index) AttachTelemetry(reg *telemetry.Registry) {
	reg.AttachCounter("invindex.searches", ix.searches)
	reg.AttachCounter("invindex.probes", ix.probes)
}

// Stats returns the index footprint.
func (ix *Index) Stats() Stats {
	st := Stats{Rows: ix.indexed, Words: len(ix.postings)}
	for w, pl := range ix.postings {
		st.Postings += len(pl)
		st.FootprintB += len(w) + 4*len(pl) + 48 // entry overhead estimate
	}
	return st
}

// Tokenize splits s into indexable words: maximal runs of ASCII letters and
// digits, lowercased when foldCase is set.
func Tokenize(s string, foldCase bool) []string {
	var words []string
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		w := s[start:end]
		if foldCase {
			w = strings.ToLower(w)
		}
		words = append(words, w)
		start = -1
	}
	for i := 0; i < len(s); i++ {
		if isWordByte(s[i]) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(s))
	return words
}

func isWordByte(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z'
}

// ParseQuery parses a CONTAINS query of `&`-separated words.
func ParseQuery(q string, foldCase bool) ([]string, error) {
	var words []string
	for _, part := range strings.Split(q, "&") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if foldCase {
			part = strings.ToLower(part)
		}
		words = append(words, part)
	}
	if len(words) == 0 {
		return nil, ErrEmptyQuery
	}
	return words, nil
}

// Search answers a conjunctive CONTAINS query, returning the sorted OIDs of
// rows containing every word. Lookups counts the posting-list probes
// performed (the paper notes several patterns require repeated lookups).
func (ix *Index) Search(q string) (oids []uint32, lookups int, err error) {
	words, err := ParseQuery(q, ix.fold)
	if err != nil {
		return nil, 0, err
	}
	ix.searches.Inc()
	defer func() { ix.probes.Add(int64(lookups)) }()
	// Intersect smallest-first for efficiency.
	lists := make([][]uint32, 0, len(words))
	for _, w := range words {
		lookups++
		pl, ok := ix.postings[w]
		if !ok {
			return nil, lookups, nil
		}
		lists = append(lists, pl)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, pl := range lists[1:] {
		out = intersect(out, pl)
		if len(out) == 0 {
			return nil, lookups, nil
		}
	}
	// Copy so callers cannot alias the postings.
	res := make([]uint32, len(out))
	copy(res, out)
	return res, lookups, nil
}

func intersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
