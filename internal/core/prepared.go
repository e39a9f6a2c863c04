package core

import (
	"fmt"
	"strings"
	"sync"

	"doppiodb/internal/config"
	"doppiodb/internal/regex"
	"doppiodb/internal/softregex"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// prepared is one pattern prepared for the deployed device: every fact that
// is a pure function of (pattern text, compile options, device limits),
// computed once by preparePattern and read by the cost model, Exec and —
// through the decision record — the planner's hardware leaves. It is the
// only place in this package that turns pattern text into anything. The
// System's config cache holds these; only the simulated ConfigGenTime
// charge is waived on a hit, so the artifact is identical whether it came
// from the cache or a fresh preparation. Everything but the probe store is
// immutable after construction and shared by concurrent queries.
type prepared struct {
	pattern string
	opts    token.Options
	// prog is the Glushkov token program (states/chars are its resource
	// demand), fits the device-capacity verdict, vec the 512-bit
	// configuration vector of a program that fits.
	prog *token.Program
	fits bool
	vec  []byte

	// A program over capacity carries its hybrid split (§7.8): the longest
	// prefix ending at a top-level `.*` that fits the device, and the
	// software remainder — or splitErr (ErrCannotSplit) when there is none.
	hwPat, swPat string
	splitErr     error
	// The remainder is post-processed by substring search when it is a
	// plain literal under exact-case collation (tailLit; QH's "delivery" —
	// what production regex engines do for literal tails), by the
	// backtracker otherwise (tail). The literal is kept, not a searcher: a
	// strmatch.BoyerMoore counts comparisons per searcher, so each query
	// builds its own.
	tailLit string
	tail    *softregex.Backtracker

	// steps keeps the software probe's step count under the probe's only
	// other inputs.
	mu    sync.Mutex
	steps map[probeKey]uint64
}

// probeKey is the probe's input besides the pattern: the synthesized rows'
// length and how many of them run.
type probeKey struct{ avgLen, rows int }

// preparePattern takes a pattern from text to everything the device and the
// cost model need of it: parse → token program → capacity verdict → config
// vector, or for a program over capacity the hybrid split and its tail
// matcher.
func preparePattern(pattern string, opts token.Options, lim config.Limits) (*prepared, error) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return nil, err
	}
	prog, err := token.Compile(ast, opts)
	if err != nil {
		return nil, err
	}
	prog.Source = pattern
	p := &prepared{pattern: pattern, opts: opts, prog: prog, fits: config.Fits(prog, lim) == nil}
	if p.fits {
		p.vec, err = config.Encode(prog, lim)
		return p, err
	}
	// Split at a top-level `.*` (the "suitable point" of §7.8), preferring
	// the longest prefix that fits.
	children := topLevelChildren(ast)
	for g := len(children) - 2; g > 0; g-- {
		if c := children[g]; c.Op != regex.OpStar || c.Subs[0].Op != regex.OpAny {
			continue
		}
		hw := renderConcat(children[:g])
		hwProg, err := token.CompilePattern(hw, opts)
		if err != nil || config.Fits(hwProg, lim) != nil {
			continue
		}
		p.hwPat, p.swPat = hw, renderConcat(children[g+1:])
		if lit, ok := literalOf(children[g+1:]); ok && !opts.FoldCase {
			p.tailLit = lit
			return p, nil
		}
		p.tail, err = softregex.NewBacktracker(p.swPat, opts.FoldCase)
		return p, err
	}
	p.splitErr = ErrCannotSplit
	return p, nil
}

// prepare is preparePattern through the system's config cache. The returned
// hit flag drives the Config. Gen. phase accounting: a hit charges zero
// simulated config-gen time.
func (s *System) prepare(pattern string, opts token.Options) (*prepared, bool, error) {
	key := fmt.Sprintf("f=%t;g=%t;%s", opts.FoldCase, opts.NoGapHold, pattern)
	if v, ok := s.Configs.Get(key); ok {
		return v.(*prepared), true, nil
	}
	p, err := preparePattern(pattern, opts, s.Device.Deployment.Limits)
	if err != nil {
		return nil, false, err
	}
	s.Configs.Put(key, p)
	return p, false, nil
}

// SplitPattern reads the hybrid split of an expression too large for the
// device: the longest prefix ending at a top-level `.*` that fits, and the
// software remainder. An expression that fits needs no split and comes back
// whole as hwPart.
func SplitPattern(pattern string, lim config.Limits, opts token.Options) (hwPart, swPart string, err error) {
	p, err := preparePattern(pattern, opts, lim)
	switch {
	case err != nil:
		return "", "", err
	case p.fits:
		return pattern, "", nil
	}
	return p.hwPat, p.swPat, p.splitErr
}

// maxProbeInputs bounds System.probeInputs: a length per distinct average
// string length the planner has asked about, a handful in any real schema.
const maxProbeInputs = 8

// probeInput returns the cost probe's rows for strings of avgLen bytes:
// probeRows non-matching rows from a fixed-seed generator. They are a pure
// function of avgLen, so they are synthesized once per length, not once
// per pattern; a probe of fewer rows reads a prefix.
func (s *System) probeInput(avgLen int) []string {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if rows, ok := s.probeInputs[avgLen]; ok {
		return rows
	}
	if s.probeInputs == nil || len(s.probeInputs) >= maxProbeInputs {
		s.probeInputs = make(map[int][]string)
	}
	g := workload.NewGenerator(1, avgLen)
	rows := make([]string, probeRows)
	for i := range rows {
		rows[i] = g.Row(workload.HitNone)
	}
	s.probeInputs[avgLen] = rows
	return rows
}

// probeSteps is the software candidate's probe: the backtracker steps the
// pattern costs over input, the first rows of probeInput(avgLen). The probe
// is always exact-case, so the count is a pure function of the pattern and
// the key and is run once per artifact; concurrent queries asking for the
// same key wait for the one run.
func (p *prepared) probeSteps(avgLen int, input []string) (uint64, error) {
	key := probeKey{avgLen, len(input)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if steps, ok := p.steps[key]; ok {
		return steps, nil
	}
	bt, err := softregex.NewBacktracker(p.pattern, false)
	if err != nil {
		return 0, err
	}
	var steps uint64
	for _, row := range input {
		_, st := bt.MatchString(row)
		steps += st
	}
	if p.steps == nil {
		p.steps = make(map[probeKey]uint64)
	}
	p.steps[key] = steps
	return steps, nil
}

// fallbackMatcher builds the whole-pattern software matcher of the degraded
// path. Built per degraded query: the path is rare and the start
// optimization's searcher is per-matcher state.
func (p *prepared) fallbackMatcher() (*softregex.Backtracker, error) {
	bt, err := softregex.NewBacktracker(p.pattern, p.opts.FoldCase)
	if err != nil {
		return nil, err
	}
	bt.SetStartOptimization(true)
	return bt, nil
}

// topLevelChildren returns the top-level concatenation elements of the AST
// (flattening nested concatenations from grouping).
func topLevelChildren(n *regex.Node) []*regex.Node {
	if n.Op != regex.OpConcat {
		return []*regex.Node{n}
	}
	var out []*regex.Node
	for _, s := range n.Subs {
		if s.Op == regex.OpConcat {
			out = append(out, topLevelChildren(s)...)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// renderConcat renders a slice of AST children back to pattern syntax.
func renderConcat(children []*regex.Node) string {
	var b strings.Builder
	for _, c := range children {
		b.WriteString(c.String())
	}
	return b.String()
}

// literalOf reports whether the nodes spell a plain literal string (literal
// characters and concatenations of them, no operators) and returns it.
func literalOf(nodes []*regex.Node) (string, bool) {
	var out []byte
	ok := true
	for _, n := range nodes {
		regex.Walk(n, func(m *regex.Node) {
			switch m.Op {
			case regex.OpLit:
				out = append(out, m.Lit)
			case regex.OpConcat:
			default:
				ok = false
			}
		})
	}
	if !ok || len(out) == 0 {
		return "", false
	}
	return string(out), true
}
