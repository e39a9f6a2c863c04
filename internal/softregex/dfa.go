package softregex

import (
	"fmt"
	"sort"
)

// DFA is a lazily determinized automaton over the Thompson NFA: each subset
// of NFA states seen during matching becomes one DFA state, and transitions
// are filled in on first use. Matching is then a single table lookup per
// byte — the per-byte speed §8.2 credits DFAs with — but the number of
// constructed states can explode with pattern complexity (the
// state-explosion problem of [41]), which States() exposes and the ablation
// bench measures.
type DFA struct {
	nfa      *Thompson
	states   []*dState
	cache    map[string]int
	start    int
	maxState int
}

type dState struct {
	nfaSet []int // sorted NFA state ids (tByte states only, plus match marker)
	match  bool
	next   [256]int32 // -1: not yet built
}

// matchMarker flags a subset containing the accept state.
const matchMarker = -1

// DefaultDFAStateLimit caps lazy construction; exceeding it returns
// ErrDFAExploded so callers can fall back to the NFA, as production engines
// do.
const DefaultDFAStateLimit = 1 << 14

// ErrDFAExploded reports that determinization exceeded the state budget.
var ErrDFAExploded = fmt.Errorf("softregex: DFA exceeded %d states (state explosion)", DefaultDFAStateLimit)

// NewDFA builds a lazy DFA for the pattern.
func NewDFA(pattern string, foldCase bool) (*DFA, error) {
	nfa, err := NewThompson(pattern, foldCase)
	if err != nil {
		return nil, err
	}
	d := &DFA{
		nfa:      nfa,
		cache:    make(map[string]int),
		maxState: DefaultDFAStateLimit,
	}
	// DFA determinization cannot honor position assertions lazily per
	// subset without tagging; anchors are resolved by including `at`
	// sensitivity only at the boundaries (offset 0 handled by the start
	// state, end-of-input by a final check). Interior anchors were
	// already rejected upstream.
	start, err := d.subsetFor(d.closure([]int{nfa.start}, true, false))
	if err != nil {
		return nil, err
	}
	d.start = start
	return d, nil
}

// States returns the number of DFA states constructed so far.
func (d *DFA) States() int { return len(d.states) }

// Source returns the original pattern.
func (d *DFA) Source() string { return d.nfa.Source() }

// closure expands an NFA state set through epsilon transitions. atStart and
// atEnd resolve ^ and $ assertions.
func (d *DFA) closure(seed []int, atStart, atEnd bool) []int {
	seen := make(map[int]bool)
	var out []int
	var walk func(st int)
	walk = func(st int) {
		if st < 0 || seen[st] {
			return
		}
		seen[st] = true
		sd := &d.nfa.states[st]
		switch sd.op {
		case tSplit:
			walk(sd.out)
			walk(sd.out1)
		case tBegin:
			if atStart {
				walk(sd.out)
			}
		case tEnd:
			if atEnd {
				walk(sd.out)
			} else {
				// Keep the pending end assertion in the subset
				// so it can be resolved when input runs out.
				out = append(out, st)
			}
		case tMatch:
			out = append(out, matchMarker)
		case tByte:
			out = append(out, st)
		}
	}
	for _, s := range seed {
		walk(s)
	}
	sort.Ints(out)
	return dedupInts(out)
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func subsetKey(set []int) string {
	b := make([]byte, 0, len(set)*3)
	for _, s := range set {
		b = append(b, byte(s), byte(s>>8), byte(s>>16))
	}
	return string(b)
}

func (d *DFA) subsetFor(set []int) (int, error) {
	key := subsetKey(set)
	if id, ok := d.cache[key]; ok {
		return id, nil
	}
	if len(d.states) >= d.maxState {
		return 0, fmt.Errorf("%w (limit %d)", ErrDFAExploded, d.maxState)
	}
	ds := &dState{nfaSet: set}
	for i := range ds.next {
		ds.next[i] = -1
	}
	for _, s := range set {
		if s == matchMarker {
			ds.match = true
		}
	}
	d.states = append(d.states, ds)
	id := len(d.states) - 1
	d.cache[key] = id
	return id, nil
}

// step computes (building if needed) the successor of state id on byte b.
// Unanchored search folds the NFA start state into every subset.
func (d *DFA) step(id int, b byte) (int, error) {
	ds := d.states[id]
	if nxt := ds.next[b]; nxt >= 0 {
		return int(nxt), nil
	}
	var seed []int
	for _, s := range ds.nfaSet {
		if s == matchMarker {
			continue
		}
		sd := &d.nfa.states[s]
		if sd.op != tByte {
			continue // pending end assertion: consumes nothing
		}
		if sd.node.MatchesByte(b, d.nfa.fold) {
			seed = append(seed, sd.out)
		}
	}
	// Re-arm the unanchored start.
	set := d.closure(append(seed, d.nfa.start), false, false)
	nxt, err := d.subsetFor(set)
	if err != nil {
		return 0, err
	}
	ds.next[b] = int32(nxt)
	return nxt, nil
}

// Match searches s and returns the 1-based earliest match end (0 if none)
// and the bytes consumed. ErrDFAExploded is returned when lazy construction
// blows the state budget.
func (d *DFA) Match(s []byte) (pos int, bytes uint64, err error) {
	id := d.start
	for i := 0; i < len(s); i++ {
		id, err = d.step(id, s[i])
		if err != nil {
			return 0, uint64(i), err
		}
		if d.states[id].match {
			return i + 1, uint64(i + 1), nil
		}
	}
	// Resolve pending $ assertions now that the input has ended.
	var pending []int
	for _, st := range d.states[id].nfaSet {
		if st != matchMarker && d.nfa.states[st].op == tEnd {
			pending = append(pending, st)
		}
	}
	final := d.closure(pending, false, true)
	for _, st := range final {
		if st == matchMarker {
			return len(s), uint64(len(s)), nil
		}
	}
	return 0, uint64(len(s)), nil
}

// MatchString is Match over a string.
func (d *DFA) MatchString(s string) (int, uint64, error) {
	return d.Match([]byte(s))
}
