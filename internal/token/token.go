// Package token compiles a regular-expression AST into the paper's
// hardware-oriented automaton form: a compact NFA whose states correspond to
// *tokens* — maximal sequences of characters matched by chained Character
// Matchers (§6.3) — connected by a runtime-configurable state graph (§6.2).
//
// The construction is a Glushkov (position) automaton over token positions.
// Each token occupies one NFA state plus a chain of character matchers; an
// edge (i → j) means "token j's chain may start on the cycle after token i
// completed". A `.*` between top-level subexpressions is compiled into a
// *hold* flag on the predecessor states ("once reached, stay active"), which
// is exactly the self-loop trick the paper's Figure 6 uses for (a|b).*c and
// keeps the state count at tokens+1 instead of spending a state on the
// wildcard. The shortcut is applied only where it provably preserves the
// language — a `.*` that is a direct child of the top-level concatenation;
// wildcards in nested positions are materialized as ordinary any-byte tokens
// with a self-loop.
package token

import (
	"errors"

	"doppiodb/internal/regex"
)

// Matcher is the specification of one chained Character Matcher position: a
// disjunction of byte ranges (a single literal is the range [c,c]; `.` is
// [0,255]), optionally negated. The hardware pairs two matcher registers per
// range (§6.3), which Cost reflects.
type Matcher struct {
	Ranges  []regex.Range
	Negated bool
}

// Matches reports whether the matcher accepts byte b, with optional ASCII
// case folding (the collation registers of §6.4).
func (m *Matcher) Matches(b byte, fold bool) bool {
	in := m.contains(b)
	if !in && fold {
		in = m.contains(foldFlip(b))
	}
	if m.Negated {
		return !in
	}
	return in
}

func (m *Matcher) contains(b byte) bool {
	for _, r := range m.Ranges {
		if r.Contains(b) {
			return true
		}
	}
	return false
}

// Cost returns the number of character-matcher registers this position
// consumes: one for a plain character, two per coupled range pair.
func (m *Matcher) Cost() int {
	c := 0
	for _, r := range m.Ranges {
		if r.Lo == r.Hi {
			c++
		} else {
			c += 2
		}
	}
	return c
}

func foldFlip(b byte) byte {
	switch {
	case 'A' <= b && b <= 'Z':
		return b + 'a' - 'A'
	case 'a' <= b && b <= 'z':
		return b - ('a' - 'A')
	}
	return b
}

// Token is a chain of character matchers recognized as a unit; it maps to
// one NFA state.
type Token struct {
	Matchers []Matcher
}

// Len returns the chain length in input bytes.
func (t *Token) Len() int { return len(t.Matchers) }

// Cost returns the total character-matcher register cost of the chain.
func (t *Token) Cost() int {
	c := 0
	for i := range t.Matchers {
		c += t.Matchers[i].Cost()
	}
	return c
}

// Program is the compiled token automaton — the information encoded into the
// PU configuration vector. Position j fires when token j's matcher chain
// completes; the chain may begin on a cycle where j is armed: either by a
// start condition or by an active predecessor.
type Program struct {
	Tokens []Token
	// Preds[j] lists the predecessor positions of token j.
	Preds [][]int
	// Start[j]: position j is armed by the start of the search.
	Start []bool
	// StartGapped[j]: position j is reached through a leading `.*`, so
	// it stays armed on every cycle even under a ^ anchor.
	StartGapped []bool
	// Accept[j]: the automaton accepts when token j fires (or, with
	// EndAnchored, when j is still active at the end of the string).
	Accept []bool
	// Hold[j]: position j remains active after firing (a `.*` gap
	// follows it), feeding successors at any later cycle.
	Hold []bool
	// Anchored/EndAnchored reflect a leading ^ / trailing $.
	Anchored    bool
	EndAnchored bool
	// FoldCase selects case-insensitive matching (collation registers).
	FoldCase bool
	// MaterializedGaps counts `.*` occurrences compiled as explicit
	// any-byte tokens rather than hold flags (ablation metric).
	MaterializedGaps int
	// Source is the original pattern, for diagnostics.
	Source string
}

// NumStates is the automaton state count in the paper's accounting: one
// state per token plus the explicit end state.
func (p *Program) NumStates() int { return len(p.Tokens) + 1 }

// NumChars is the character-matcher register demand of the program.
func (p *Program) NumChars() int {
	c := 0
	for i := range p.Tokens {
		c += p.Tokens[i].Cost()
	}
	return c
}

// Compile errors.
var (
	// ErrMatchesEmpty rejects patterns that accept the empty string: the
	// HUDF result encoding cannot distinguish an empty match at position
	// zero from a non-match (§4.1).
	ErrMatchesEmpty = errors.New("token: pattern matches the empty string; not expressible in the HUDF result encoding")
	// ErrUnsupportedAnchor rejects ^ and $ anywhere but the pattern ends.
	ErrUnsupportedAnchor = errors.New("token: ^ and $ are only supported at the pattern boundaries in hardware")
)

// Options control compilation.
type Options struct {
	// FoldCase compiles a case-insensitive (collation) program.
	FoldCase bool
	// NoGapHold disables the hold-flag shortcut for `.*`, always
	// materializing wildcards as any-byte tokens. Used by the ablation
	// bench to quantify the states the shortcut saves.
	NoGapHold bool
}

// CompilePattern parses and compiles a pattern string.
func CompilePattern(pattern string, opts Options) (*Program, error) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return nil, err
	}
	p, err := Compile(ast, opts)
	if err != nil {
		return nil, err
	}
	p.Source = pattern
	return p, nil
}

// stripAnchors removes a leading ^ and trailing $ from the top-level
// concatenation and rejects anchors elsewhere.
func stripAnchors(n *regex.Node) (body *regex.Node, anchored, endAnchored bool, err error) {
	subs := []*regex.Node{n}
	if n.Op == regex.OpConcat {
		subs = n.Subs
	}
	for len(subs) > 0 && subs[0].Op == regex.OpBegin {
		anchored = true
		subs = subs[1:]
	}
	for len(subs) > 0 && subs[len(subs)-1].Op == regex.OpEnd {
		endAnchored = true
		subs = subs[:len(subs)-1]
	}
	bad := false
	for _, s := range subs {
		regex.Walk(s, func(m *regex.Node) {
			if m.Op == regex.OpBegin || m.Op == regex.OpEnd {
				bad = true
			}
		})
	}
	if bad {
		return nil, false, false, ErrUnsupportedAnchor
	}
	switch len(subs) {
	case 0:
		return &regex.Node{Op: regex.OpEmpty}, anchored, endAnchored, nil
	case 1:
		return subs[0], anchored, endAnchored, nil
	}
	return &regex.Node{Op: regex.OpConcat, Subs: subs}, anchored, endAnchored, nil
}
