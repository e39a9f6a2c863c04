package softregex

import (
	"doppiodb/internal/regex"
	"doppiodb/internal/strmatch"
)

// Start optimization (PCRE calls this "first character / required literal"
// optimization): when every match of the pattern begins with a fixed
// literal prefix, the matcher can skip to occurrences of that prefix with
// Boyer-Moore instead of attempting a backtracking match at every offset.
// This is the optimization whose absence makes our QH baseline slower than
// the authors' PCRE (see EXPERIMENTS.md on Figure 13); it is off by
// default so the calibrated cost model stays anchored to the measured
// behaviour, and the ablation quantifies what it buys.

// SetStartOptimization toggles the literal-prefix prescan. It returns the
// prefix in use ("" when the pattern has no required literal prefix, in
// which case the setting has no effect).
func (b *Backtracker) SetStartOptimization(on bool) string {
	if !on {
		b.prescan = nil
		return ""
	}
	if b.prefix == "" {
		return ""
	}
	b.prescan = strmatch.NewBoyerMoore([]byte(b.prefix), false)
	return b.prefix
}

// searchPrefix is the prefix the start optimization searches for: the
// required literal prefix, or "" when it does not pay — one byte does not
// pay for a BM pass; folded patterns would need a case-folded search, so
// keep it simple and skip.
func searchPrefix(ast *regex.Node, foldCase bool) string {
	lit := RequiredLiteralPrefix(ast)
	if len(lit) < 2 || foldCase {
		return ""
	}
	return lit
}

// RequiredLiteralPrefix computes the longest literal every match of the
// (desugared) AST must start with.
func RequiredLiteralPrefix(n *regex.Node) string {
	lit, _ := prefixOf(n)
	return lit
}

// prefixOf returns the mandatory literal prefix of n and whether the whole
// of n is exactly that literal (so a following sibling can extend it).
func prefixOf(n *regex.Node) (string, bool) {
	switch n.Op {
	case regex.OpLit:
		return string([]byte{n.Lit}), true
	case regex.OpConcat:
		var out []byte
		for _, s := range n.Subs {
			p, complete := prefixOf(s)
			out = append(out, p...)
			if !complete {
				return string(out), false
			}
		}
		return string(out), true
	case regex.OpAlt:
		if len(n.Subs) == 0 {
			return "", false
		}
		common, _ := prefixOf(n.Subs[0])
		for _, s := range n.Subs[1:] {
			p, _ := prefixOf(s)
			common = commonPrefix(common, p)
			if common == "" {
				return "", false
			}
		}
		// An alternation never counts as "complete": branches may
		// diverge after the common prefix.
		return common, false
	case regex.OpPlus:
		// X+ must start with X's prefix (one mandatory occurrence).
		p, _ := prefixOf(n.Subs[0])
		return p, false
	case regex.OpBegin:
		return "", true // zero-width, keep scanning siblings
	}
	// Classes, `.`, Star, Quest, Repeat{0,..}, End: no fixed byte.
	return "", false
}

func commonPrefix(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}
