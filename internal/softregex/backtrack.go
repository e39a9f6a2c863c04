// Package softregex is the software regular-expression substrate standing
// in for PCRE, the library MonetDB's REGEXP_LIKE uses (§4.1). Three engines
// are provided:
//
//   - Backtracker — a backtracking matcher with PCRE-like cost behaviour:
//     work grows with pattern complexity, and wildcards force rescanning.
//     This is what the CPU baselines in the evaluation run. Like PCRE it
//     compiles the pattern once — NewBacktracker turns the desugared AST
//     into a flat instruction array — and runs that program per input over
//     an explicit backtrack stack; nothing is allocated per match.
//   - Thompson — an NFA simulation with linear-time guarantees, one of the
//     alternatives §8.2 discusses.
//   - DFA — a lazily constructed deterministic automaton, fast per byte but
//     subject to the state-explosion problem the paper cites ([41]).
//
// All engines implement unanchored search with the same byte-wise dialect
// as internal/regex and report the work they performed so the calibrated
// performance model can convert it into simulated CPU time.
//
// The Backtracker's work unit, the step, is frozen: internal/perf prices
// REGEXP_LIKE from it, so every software figure of the reproduction moves
// if it moves. A step is one entry into an AST node during the search — a
// leaf costs one whether or not the byte matches (also at end of input), a
// concatenation, alternation, ?, * and + cost one when entered, and a loop
// iteration or a later alternative costs nothing beyond the nodes inside
// it. The compiler keeps that count by giving each instruction the cost (0
// or 1) of the node entry it stands for; TestBacktrackerGoldenSteps pins
// literals and FuzzBacktrackerAgainstReference compares against the AST
// interpreter the definition comes from.
package softregex

import (
	"fmt"
	"sync"
	"unsafe"

	"doppiodb/internal/regex"
	"doppiodb/internal/strmatch"
)

// Backtracker is a compiled backtracking matcher, safe for concurrent
// Match calls.
type Backtracker struct {
	src   string
	insts []inst
	sets  []byteSet
	// nregs counts the position registers: one per loop whose body can
	// match the empty string.
	nregs int
	// anchored: a leading ^ pins the single start position.
	anchored bool
	// prefix is the literal the start optimization searches for ("" when
	// the pattern has none worth a search); prescan, when set by
	// SetStartOptimization, skips to its occurrences before attempting a
	// match.
	prefix  string
	prescan *strmatch.BoyerMoore
	// states holds idle *runState values, so that a match allocates
	// nothing and concurrent callers share nothing.
	states sync.Pool
}

type opcode uint8

const (
	opByte  opcode = iota // consume one byte equal to b
	opSet                 // consume one byte in sets[x]
	opAny                 // consume one byte
	opBegin               // assert start of input
	opEnd                 // assert end of input
	opNop                 // fall through (a node entry that only costs its step)
	opFail                // backtrack
	opSplit               // continue at x; y is the alternative tried when x fails
	opJmp                 // continue at x
	opMark                // regs[x] = pos; backtracking past here restores the old value
	opCheck               // backtrack if regs[x] == pos: the iteration consumed nothing
	opMatch               // report pos
)

// inst is one instruction; cost is the step it adds when it executes.
type inst struct {
	op   opcode
	cost uint8
	b    byte
	x, y int32
}

// byteSet is a 256-bit membership table with case folding baked in.
type byteSet [8]uint32

func (s *byteSet) has(b byte) bool { return s[b>>5]>>(b&31)&1 != 0 }

// frame is one entry of the backtrack stack: the alternative (pc, pos) to
// resume at, or — pc < 0 — the value pos to put back into regs[^pc].
type frame struct{ pc, pos int }

// runState is the mutable part of one Match call.
type runState struct {
	stack []frame
	regs  []int
}

// maxRetainedFrames bounds the stack a pooled runState keeps (64 KiB); a
// state that a pathological input grew past it is dropped after the match.
const maxRetainedFrames = 4096

// maxProgram bounds the instruction array (12 MiB). Desugaring shares the
// repeated subtree but the program holds every copy, so nested counted
// repetitions such as ((a{1000}){1000}){1000} would otherwise exhaust
// memory at compile time.
const maxProgram = 1 << 20

// NewBacktracker parses and compiles a pattern.
func NewBacktracker(pattern string, foldCase bool) (*Backtracker, error) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return nil, err
	}
	return compile(regex.Desugar(ast), pattern, foldCase)
}

// compile builds the program for an AST.
func compile(ast *regex.Node, src string, foldCase bool) (*Backtracker, error) {
	c := compiler{fold: foldCase, setIdx: make(map[byteSet]int32)}
	c.node(ast)
	if len(c.insts) >= maxProgram {
		return nil, fmt.Errorf("softregex: %q expands to more than %d instructions", src, maxProgram)
	}
	c.emit(inst{op: opMatch})
	return &Backtracker{
		src:      src,
		insts:    c.insts,
		sets:     c.sets,
		nregs:    c.nregs,
		anchored: hasLeadingBegin(ast),
		prefix:   searchPrefix(ast, foldCase),
	}, nil
}

// Source returns the original pattern.
func (b *Backtracker) Source() string { return b.src }

// Match searches s for the pattern. It returns the 1-based end position of
// the leftmost match (0 when there is none) and the number of backtracking
// steps performed — the work metric the perf model consumes.
func (b *Backtracker) Match(s []byte) (pos int, steps uint64) {
	st, _ := b.states.Get().(*runState)
	if st == nil {
		st = &runState{stack: make([]frame, 0, 64), regs: make([]int, b.nregs)}
	}
	pos, steps = b.exec(st, s)
	if cap(st.stack) <= maxRetainedFrames {
		b.states.Put(st)
	}
	return pos, steps
}

// MatchString is Match over a string.
func (b *Backtracker) MatchString(s string) (int, uint64) {
	// Match only reads its argument.
	return b.Match(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// exec runs the program at each start offset until one attempt matches.
// An attempt explores alternatives depth-first in program order: a split
// pushes its second target, a failing instruction pops the newest frame.
func (b *Backtracker) exec(st *runState, s []byte) (int, uint64) {
	insts, sets, regs := b.insts, b.sets, st.regs
	stack := st.stack[:0]
	var steps uint64
	last := len(s)
	if b.anchored {
		last = 0
	}
	// Start optimization: only offsets where the required literal prefix
	// occurs can begin a match.
	skip := b.prescan != nil && last > 0
attempts:
	for start := 0; start <= last; start++ {
		if skip {
			if start = b.prescan.Find(s, start); start < 0 {
				break
			}
		}
		pc, pos := 0, start
		for {
			in := &insts[pc]
			steps += uint64(in.cost)
			switch in.op {
			case opByte:
				if pos < len(s) && s[pos] == in.b {
					pc, pos = pc+1, pos+1
					continue
				}
			case opSet:
				if pos < len(s) && sets[in.x].has(s[pos]) {
					pc, pos = pc+1, pos+1
					continue
				}
			case opAny:
				if pos < len(s) {
					pc, pos = pc+1, pos+1
					continue
				}
			case opBegin:
				if pos == 0 {
					pc++
					continue
				}
			case opEnd:
				if pos == len(s) {
					pc++
					continue
				}
			case opNop:
				pc++
				continue
			case opSplit:
				stack = append(stack, frame{int(in.y), pos})
				pc = int(in.x)
				continue
			case opJmp:
				pc = int(in.x)
				continue
			case opMark:
				stack = append(stack, frame{^int(in.x), regs[in.x]})
				regs[in.x] = pos
				pc++
				continue
			case opCheck:
				if regs[in.x] != pos {
					pc++
					continue
				}
			case opMatch:
				st.stack = stack
				return pos, steps
			}
			// The instruction failed: resume the newest alternative,
			// undoing the marks made since it was pushed.
			for {
				n := len(stack) - 1
				if n < 0 {
					continue attempts
				}
				f := stack[n]
				stack = stack[:n]
				if f.pc >= 0 {
					pc, pos = f.pc, f.pos
					break
				}
				regs[^f.pc] = f.pos
			}
		}
	}
	st.stack = stack
	return 0, steps
}

func hasLeadingBegin(n *regex.Node) bool {
	for {
		switch n.Op {
		case regex.OpBegin:
			return true
		case regex.OpConcat:
			if len(n.Subs) == 0 {
				return false
			}
			n = n.Subs[0]
		default:
			return false
		}
	}
}

// compiler emits the program. Each case of node mirrors how the search
// enters that kind of node, so the instruction that stands for the entry
// carries cost 1 and everything else cost 0.
type compiler struct {
	fold   bool
	insts  []inst
	sets   []byteSet
	setIdx map[byteSet]int32
	nregs  int
}

func (c *compiler) emit(in inst) int {
	c.insts = append(c.insts, in)
	return len(c.insts) - 1
}

func (c *compiler) pc() int32 { return int32(len(c.insts)) }

func (c *compiler) node(n *regex.Node) {
	if len(c.insts) >= maxProgram {
		return // compile reports it; stop expanding
	}
	switch n.Op {
	case regex.OpEmpty:
		c.emit(inst{op: opNop, cost: 1})
	case regex.OpLit, regex.OpClass:
		c.leaf(n)
	case regex.OpAny:
		c.emit(inst{op: opAny, cost: 1})
	case regex.OpBegin:
		c.emit(inst{op: opBegin, cost: 1})
	case regex.OpEnd:
		c.emit(inst{op: opEnd, cost: 1})
	case regex.OpConcat:
		c.emit(inst{op: opNop, cost: 1})
		for _, sub := range n.Subs {
			c.node(sub)
		}
	case regex.OpAlt:
		c.alt(n.Subs)
	case regex.OpQuest:
		split := c.emit(inst{op: opSplit, cost: 1, x: c.pc() + 1})
		c.node(n.Subs[0])
		c.insts[split].y = c.pc()
	case regex.OpStar:
		c.loop(n.Subs[0], 1)
	case regex.OpPlus:
		// X+ is X then the X* loop; entering the loop is not a node
		// entry of its own.
		c.emit(inst{op: opNop, cost: 1})
		c.node(n.Subs[0])
		c.loop(n.Subs[0], 0)
	case regex.OpRepeat:
		// Desugared at construction; a stray OpRepeat (tree built by
		// hand) costs its own entry, then its expansion's.
		c.emit(inst{op: opNop, cost: 1})
		c.node(regex.Desugar(n))
	default:
		c.emit(inst{op: opFail, cost: 1})
	}
}

// leaf emits a literal or class: a plain byte compare when exactly one
// byte matches, a set otherwise (a class, or a letter under case folding).
func (c *compiler) leaf(n *regex.Node) {
	if n.Op == regex.OpLit && !c.fold {
		c.emit(inst{op: opByte, cost: 1, b: n.Lit})
		return
	}
	var set byteSet
	members, only := 0, byte(0)
	for v := 0; v < 256; v++ {
		if n.MatchesByte(byte(v), c.fold) {
			set[v>>5] |= 1 << (v & 31)
			members, only = members+1, byte(v)
		}
	}
	if members == 1 {
		c.emit(inst{op: opByte, cost: 1, b: only})
		return
	}
	idx, ok := c.setIdx[set]
	if !ok {
		idx = int32(len(c.sets))
		c.sets = append(c.sets, set)
		c.setIdx[set] = idx
	}
	c.emit(inst{op: opSet, cost: 1, x: idx})
}

// alt emits sub1 | … | subn: the alternation is entered once, at its first
// split (a nop when there is a single branch, a fail when there is none);
// moving on to a later branch is free.
func (c *compiler) alt(subs []*regex.Node) {
	if len(subs) == 0 {
		c.emit(inst{op: opFail, cost: 1})
		return
	}
	last := len(subs) - 1
	if last == 0 {
		c.emit(inst{op: opNop, cost: 1})
	}
	var jmps []int
	for i, sub := range subs[:last] {
		cost := uint8(0)
		if i == 0 {
			cost = 1
		}
		split := c.emit(inst{op: opSplit, cost: cost, x: c.pc() + 1})
		c.node(sub)
		jmps = append(jmps, c.emit(inst{op: opJmp}))
		c.insts[split].y = c.pc()
	}
	c.node(subs[last])
	for _, j := range jmps {
		c.insts[j].x = c.pc()
	}
}

// loop emits greedy X*: a split in front of the body and one behind it, so
// an iteration is the body plus one free split. entryCost is 1 when the
// front split stands for entering an OpStar. A body that can match the
// empty string is bracketed by mark/check on a register of its own, which
// stops the iteration that consumed nothing; other bodies always advance
// and need no guard.
func (c *compiler) loop(body *regex.Node, entryCost uint8) {
	front := c.emit(inst{op: opSplit, cost: entryCost, x: c.pc() + 1})
	top := c.pc()
	guard := body.Nullable()
	reg := int32(c.nregs)
	if guard {
		c.nregs++
		c.emit(inst{op: opMark, x: reg})
	}
	c.node(body)
	if guard {
		c.emit(inst{op: opCheck, x: reg})
	}
	back := c.emit(inst{op: opSplit, x: top})
	c.insts[front].y = c.pc()
	c.insts[back].y = c.pc()
}
