package softregex

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"doppiodb/internal/regex"
)

// refBudget bounds one reference run in the differential checks (≈ 10 ms of
// closure calls); inputs that need more are skipped, not failed.
const refBudget = 1 << 18

// checkAgainstReference requires the compiled program to return the
// reference interpreter's position and step count on in, with the start
// optimization off and on and through both entry points, and — for a
// pattern that cannot match the empty string, whose verdict every engine
// encodes the same way — Thompson, DFA and Go's regexp to agree on whether
// there is a match. It reports false when the input was skipped.
func checkAgainstReference(t *testing.T, pat string, in []byte, fold bool) bool {
	t.Helper()
	bt, err := NewBacktracker(pat, fold)
	if err != nil || len(bt.insts) > 4096 {
		return false
	}
	ref, err := newRefBacktracker(pat, fold)
	if err != nil {
		t.Fatalf("%q: compiled but the reference rejects it: %v", pat, err)
	}
	var matched bool
	for _, opt := range []bool{false, true} {
		bt.SetStartOptimization(opt)
		ref.setStartOptimization(opt)
		wantPos, wantSteps, ok := ref.match(in, refBudget)
		if !ok {
			return false
		}
		if pos, steps := bt.Match(in); pos != wantPos || steps != wantSteps {
			t.Fatalf("%q fold=%v opt=%v on %q: Match = (%d, %d), reference (%d, %d)",
				pat, fold, opt, in, pos, steps, wantPos, wantSteps)
		}
		if pos, steps := bt.MatchString(string(in)); pos != wantPos || steps != wantSteps {
			t.Fatalf("%q fold=%v opt=%v on %q: MatchString = (%d, %d), reference (%d, %d)",
				pat, fold, opt, in, pos, steps, wantPos, wantSteps)
		}
		matched = wantPos != 0
	}
	if ref.ast.Nullable() {
		return true
	}
	th, err := NewThompson(pat, fold)
	if err != nil {
		t.Fatalf("thompson %q: %v", pat, err)
	}
	if pos, _ := th.Match(in); (pos != 0) != matched {
		t.Fatalf("%q fold=%v on %q: backtracker matched=%v, thompson pos=%d", pat, fold, in, matched, pos)
	}
	df, err := NewDFA(pat, fold)
	if err != nil {
		t.Fatalf("dfa %q: %v", pat, err)
	}
	// A DFA that exceeds its state budget has no verdict.
	if pos, _, err := df.Match(in); err == nil && (pos != 0) != matched {
		t.Fatalf("%q fold=%v on %q: backtracker matched=%v, dfa pos=%d", pat, fold, in, matched, pos)
	}
	// Go's regexp decodes UTF-8 where this dialect matches bytes, and folds
	// case by Unicode rules: compare on ASCII input, exact case.
	if !fold && isASCII(in) {
		if re, err := regexp.Compile(goSyntax(ref.ast)); err == nil && re.Match(in) != matched {
			t.Fatalf("%q on %q: backtracker matched=%v, Go regexp %q says %v", pat, in, matched, re, !matched)
		}
	}
	return true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// goSyntax renders a desugared AST in Go's regexp syntax, spelling every
// byte as a hex escape so that the two dialects' differences in escapes,
// class syntax and lazy quantifiers cannot come into play.
func goSyntax(n *regex.Node) string {
	var b strings.Builder
	var walk func(n *regex.Node)
	group := func(n *regex.Node, suffix string) {
		b.WriteString("(?:")
		walk(n)
		b.WriteString(")" + suffix)
	}
	walk = func(n *regex.Node) {
		switch n.Op {
		case regex.OpLit:
			fmt.Fprintf(&b, `\x%02x`, n.Lit)
		case regex.OpClass:
			b.WriteString("[")
			if n.Negated {
				b.WriteString("^")
			}
			for _, r := range n.Ranges {
				fmt.Fprintf(&b, `\x%02x-\x%02x`, r.Lo, r.Hi)
			}
			b.WriteString("]")
		case regex.OpAny:
			b.WriteString("(?s:.)")
		case regex.OpBegin:
			b.WriteString(`\A`)
		case regex.OpEnd:
			b.WriteString(`\z`)
		case regex.OpConcat:
			for _, s := range n.Subs {
				walk(s)
			}
		case regex.OpAlt:
			b.WriteString("(?:")
			for i, s := range n.Subs {
				if i > 0 {
					b.WriteString("|")
				}
				walk(s)
			}
			b.WriteString(")")
		case regex.OpStar:
			group(n.Subs[0], "*")
		case regex.OpPlus:
			group(n.Subs[0], "+")
		case regex.OpQuest:
			group(n.Subs[0], "?")
		}
	}
	walk(n)
	return b.String()
}

// FuzzBacktrackerAgainstReference is the differential target: random
// (pattern, input, foldCase) through checkAgainstReference.
func FuzzBacktrackerAgainstReference(f *testing.F) {
	for _, g := range goldenPatterns {
		for _, in := range goldenInputs {
			f.Add(g.pat, []byte(in), g.fold)
		}
	}
	for _, pat := range []string{
		`((((c)*){0,2}){1,3}){1,3}$`, // nested nullable loops: marks restored across iterations
		`(a*)*b`, `(a|b*)+c`, `(^a|b)*c`, `(a*$)+`,
		`x(a|ab)(c|bcd)(d*)y`, `[^a-c]+\.[\d]{2,}`, `(ab){2,}c?$`, `a{0}b`,
	} {
		f.Add(pat, []byte("aabccabcdbcddyab.42abab"), false)
		f.Add(pat, []byte("CCccXabABCc"), true)
	}
	f.Fuzz(func(t *testing.T, pat string, in []byte, fold bool) {
		if len(pat) > 48 || len(in) > 256 {
			t.Skip()
		}
		if !checkAgainstReference(t, pat, in, fold) {
			t.Skip()
		}
	})
}
