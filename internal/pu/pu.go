// Package pu implements the Processing Unit (§6): a runtime-parameterizable
// NFA circuit consisting of chained Character Matchers and a fully connected
// State Graph. A PU consumes exactly one input byte per 400 MHz cycle
// regardless of pattern complexity — the property that gives the paper its
// complexity-independent performance — and reports the match index (the
// 1-based position of the match's last character) as a 16-bit unsigned
// integer, or zero for no match.
//
// The software model is a Shift-And automaton with per-state follow masks
// (Kong et al., PAPERS.md), and its cost per byte does not depend on the
// pattern either. Everything lives in chain-bit space: bit k of a 64-bit word
// is chain position k. chain holds the matcher shift registers; active holds
// the state bits, each at its token's last chain position, so the fired states
// are chain&lastBits with no per-token extraction. The State Graph is the succ
// table: succ[k] is the set of first positions the state at last position k
// arms, and the entries armed for the next cycle are the OR of succ over the
// set bits of active — recomputed only on the cycles where active changes.
//
// While no chain is in flight nothing fires, so only held states stay active
// and the only bytes that can change the circuit are those an armed entry
// accepts: Match skips to the next such byte (the idle skip). Cycles are counted
// from the position Match stops at, not from the steps it takes, so
// Stats.Bytes still says one cycle per input byte up to the match.
//
// Observable behaviour is cross-checked against the slow reference
// interpreter in internal/token (FuzzMatchAgainstReference).
package pu

import (
	"errors"
	"fmt"
	"math/bits"

	"doppiodb/internal/token"
)

// Circuit capacity of the software model, matching the largest deployment
// the paper synthesizes (Fig. 15 explores up to 32 states / 64 characters).
const (
	// MaxTokens bounds the token states of one expression (the end state
	// is implicit in the accept signal).
	MaxTokens = 32
	// MaxChainPositions bounds the total matcher chain positions.
	MaxChainPositions = 64
)

// Capacity errors.
var (
	ErrTooManyTokens = errors.New("pu: expression exceeds the state-graph capacity")
	ErrChainTooLong  = errors.New("pu: expression exceeds the character-matcher capacity")
)

// tables is one loaded configuration: what New derives from the token program
// and Match only reads. The Units of a job share one.
type tables struct {
	prog *token.Program

	// hit[b] has chain-position bit k set when the matcher at chain
	// position k accepts byte b (collation registers folded in).
	hit [256]uint64

	// succ[k], for k the last chain position of a token, has the first
	// position of each of that token's successors set.
	succ [MaxChainPositions]uint64

	firstBits   uint64 // bits at all first positions
	lastBits    uint64 // bits at all last positions
	holdBits    uint64 // last positions of states that stay active once fired
	acceptBits  uint64 // last positions of accepting states
	entryAlways uint64 // chain entries armed on every cycle
	entryAtZero uint64 // chain entries armed only at offset 0 (^ anchor)
}

// Unit is one configured Processing Unit. A Unit belongs to one goroutine:
// engine.run clones one per worker, so the work counters are plain fields.
type Unit struct {
	*tables

	// stats accumulates across Match calls — the DSM-style hardware
	// counters of this PU.
	stats Stats
}

// Stats counts the work a Unit has performed; the engine model uses Cycles
// for timing (one byte per 400 MHz cycle).
type Stats struct {
	Strings uint64 // strings processed
	Bytes   uint64 // bytes consumed = PU cycles
	Matches uint64 // strings that matched
}

// New builds a Unit from a compiled token program, the software analogue of
// loading the configuration vector into the PU's parameter registers.
func New(prog *token.Program) (*Unit, error) {
	n := len(prog.Tokens)
	if n == 0 {
		return nil, errors.New("pu: empty program")
	}
	if n > MaxTokens {
		return nil, ErrTooManyTokens
	}
	t := &tables{prog: prog}
	firstPos := make([]uint, n)
	lastPos := make([]uint, n)
	pos := uint(0)
	for j := 0; j < n; j++ {
		tok := &prog.Tokens[j]
		if int(pos)+tok.Len() > MaxChainPositions {
			return nil, ErrChainTooLong
		}
		firstPos[j] = pos
		lastPos[j] = pos + uint(tok.Len()) - 1
		for k := 0; k < tok.Len(); k++ {
			m := &tok.Matchers[k]
			for b := 0; b < 256; b++ {
				if m.Matches(byte(b), prog.FoldCase) {
					t.hit[b] |= 1 << (pos + uint(k))
				}
			}
		}
		pos += uint(tok.Len())
	}
	for j := 0; j < n; j++ {
		fb := uint64(1) << firstPos[j]
		lb := uint64(1) << lastPos[j]
		t.firstBits |= fb
		t.lastBits |= lb
		if prog.Start[j] {
			if !prog.Anchored || prog.StartGapped[j] {
				t.entryAlways |= fb
			} else {
				t.entryAtZero |= fb
			}
		}
		for _, p := range prog.Preds[j] {
			t.succ[lastPos[p]] |= fb
		}
		if prog.Hold[j] {
			t.holdBits |= lb
		}
		if prog.Accept[j] {
			t.acceptBits |= lb
		}
	}
	return &Unit{tables: t}, nil
}

// Clone returns a Unit with u's configuration and zeroed counters, the way an
// engine loads one configuration vector into all of its PUs. The clone shares
// u's read-only tables and may run on another goroutine.
func (u *Unit) Clone() *Unit { return &Unit{tables: u.tables} }

// Program returns the configured token program.
func (u *Unit) Program() *token.Program { return u.prog }

// Stats returns a snapshot of the accumulated work counters.
func (u *Unit) Stats() Stats { return u.stats }

// Match feeds s through the PU one byte per cycle and returns the match
// index per the HUDF encoding: 0 for no match, else the 1-based position of
// the first match's last character, saturating at 65535.
func (u *Unit) Match(s []byte) uint16 {
	t := u.tables
	u.stats.Strings++
	var chain, active uint64
	entry := t.entryAlways | t.entryAtZero

	for i := 0; i < len(s); i++ {
		chain = ((chain<<1)&^t.firstBits | entry) & t.hit[s[i]]
		fired := chain & t.lastBits
		// The armed entries follow active; offset 0 also retires the ^ ones.
		if next := fired | t.holdBits&active; next != active || i == 0 {
			active = next
			entry = t.entryAlways
			for a := active; a != 0; a &= a - 1 {
				entry |= t.succ[bits.TrailingZeros64(a)]
			}
		}

		if fired&t.acceptBits != 0 && (!t.prog.EndAnchored || i == len(s)-1) {
			u.stats.Bytes += uint64(i + 1)
			u.stats.Matches++
			return satPos(i + 1)
		}

		// Idle skip: with no chain in flight nothing fired, so active is
		// down to its held states, and a byte that no armed entry accepts
		// leaves the circuit as it is.
		if chain == 0 {
			for i+1 < len(s) && t.hit[s[i+1]]&entry == 0 {
				i++
			}
		}
	}
	u.stats.Bytes += uint64(len(s))
	if t.prog.EndAnchored && active&t.acceptBits&t.holdBits != 0 {
		// A held accept position (e.g. `a.*$`) is still active when
		// the string ends.
		u.stats.Matches++
		return satPos(len(s))
	}
	return 0
}

// MatchString is Match over a string.
func (u *Unit) MatchString(s string) uint16 {
	return u.Match([]byte(s))
}

func satPos(p int) uint16 {
	if p > 0xFFFF {
		return 0xFFFF
	}
	return uint16(p)
}

func (u *Unit) String() string {
	return fmt.Sprintf("PU{states=%d chars=%d chain=%d}",
		u.prog.NumStates(), u.prog.NumChars(), bits.Len64(u.lastBits))
}
