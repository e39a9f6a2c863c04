package softregex

import (
	"doppiodb/internal/regex"
	"doppiodb/internal/strmatch"
)

// refBacktracker is the closure-CPS interpreter that was Backtracker's body
// until the compiled program replaced it: it walks the AST per input with
// one continuation per node per attempt. It stays as the reference the
// program is compared against — position and step count — because the perf
// model prices REGEXP_LIKE from the steps counted here: one per node entry.
type refBacktracker struct {
	ast     *regex.Node
	fold    bool
	prescan *strmatch.BoyerMoore
}

func newRefBacktracker(pattern string, foldCase bool) (*refBacktracker, error) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return nil, err
	}
	return &refBacktracker{ast: regex.Desugar(ast), fold: foldCase}, nil
}

// setStartOptimization mirrors Backtracker.SetStartOptimization.
func (b *refBacktracker) setStartOptimization(on bool) {
	b.prescan = nil
	if lit := searchPrefix(b.ast, b.fold); on && lit != "" {
		b.prescan = strmatch.NewBoyerMoore([]byte(lit), false)
	}
}

// match is Match with a step budget: nested nullable loops make the work
// exponential in the pattern, so a run that would count more than budget
// steps unwinds and reports ok = false.
func (b *refBacktracker) match(s []byte, budget uint64) (pos int, steps uint64, ok bool) {
	m := &refRun{s: s, fold: b.fold, budget: budget}
	// A leading ^ pins the single start position.
	starts := len(s) + 1
	if hasLeadingBegin(b.ast) {
		starts = 1
	}
	if b.prescan != nil && starts > 1 {
		// Start optimization: only offsets where the required literal
		// prefix occurs can begin a match.
		for start := 0; start < starts; {
			at := b.prescan.Find(s, start)
			if at < 0 {
				return 0, m.steps, true
			}
			end := -1
			if m.try(b.ast, at, func(e int) bool { end = e; return true }) {
				return end, m.steps, !m.over
			}
			start = at + 1
		}
		return 0, m.steps, true
	}
	for start := 0; start < starts; start++ {
		end := -1
		if m.try(b.ast, start, func(e int) bool { end = e; return true }) {
			return end, m.steps, !m.over
		}
	}
	return 0, m.steps, true
}

type refRun struct {
	s      []byte
	fold   bool
	steps  uint64
	budget uint64
	over   bool
}

// try matches node n at position i and calls k with the position after the
// match; it returns true as soon as any continuation succeeds. Positions
// passed to k are byte offsets; a successful overall match reports i as a
// 1-based end position (offset of the byte after the match).
func (m *refRun) try(n *regex.Node, i int, k func(int) bool) bool {
	if m.steps >= m.budget {
		// Every caller returns at the first true, so this unwinds the
		// whole search.
		m.over = true
		return true
	}
	m.steps++
	switch n.Op {
	case regex.OpEmpty:
		return k(i)
	case regex.OpLit, regex.OpClass, regex.OpAny:
		if i < len(m.s) && n.MatchesByte(m.s[i], m.fold) {
			return k(i + 1)
		}
		return false
	case regex.OpBegin:
		return i == 0 && k(i)
	case regex.OpEnd:
		return i == len(m.s) && k(i)
	case regex.OpConcat:
		var chain func(idx, pos int) bool
		chain = func(idx, pos int) bool {
			if idx == len(n.Subs) {
				return k(pos)
			}
			return m.try(n.Subs[idx], pos, func(np int) bool {
				return chain(idx+1, np)
			})
		}
		return chain(0, i)
	case regex.OpAlt:
		for _, sub := range n.Subs {
			if m.try(sub, i, k) {
				return true
			}
		}
		return false
	case regex.OpQuest:
		if m.try(n.Subs[0], i, k) {
			return true
		}
		return k(i)
	case regex.OpStar:
		return m.star(n.Subs[0], i, k)
	case regex.OpPlus:
		return m.try(n.Subs[0], i, func(np int) bool {
			return m.star(n.Subs[0], np, k)
		})
	case regex.OpRepeat:
		// Desugared at construction; a stray OpRepeat (tree built by
		// hand) is expanded on the fly.
		return m.try(regex.Desugar(n), i, k)
	}
	return false
}

// star implements greedy X* with a progress guard against nullable bodies.
func (m *refRun) star(sub *regex.Node, i int, k func(int) bool) bool {
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if m.try(sub, pos, func(np int) bool {
			if np == pos {
				return false // no progress: stop iterating
			}
			return rec(np)
		}) {
			return true
		}
		return k(pos)
	}
	return rec(i)
}
