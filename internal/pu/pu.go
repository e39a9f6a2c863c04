// Package pu implements the Processing Unit (§6): a runtime-parameterizable
// NFA circuit consisting of chained Character Matchers and a fully connected
// State Graph. A PU consumes exactly one input byte per 400 MHz cycle
// regardless of pattern complexity — the property that gives the paper its
// complexity-independent performance — and reports the match index (the
// 1-based position of the match's last character) as a 16-bit unsigned
// integer, or zero for no match.
//
// The software model is bit-parallel: all chain shift registers live in one
// 64-bit word and all state bits in one 32-bit word, mirroring how the
// synchronous circuit updates every flip-flop in a single clock edge. Its
// observable behaviour is cross-checked against the slow reference
// interpreter in internal/token.
package pu

import (
	"errors"
	"fmt"

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

// Unit is one configured Processing Unit. A Unit belongs to one goroutine:
// engine.runRange builds its own per worker, so the work counters are plain
// fields.
type Unit struct {
	prog    *token.Program
	nTokens int

	// hit[b] has chain-position bit k set when the matcher at chain
	// position k accepts byte b (collation registers folded in).
	hit [256]uint64

	firstPos []uint // chain bit index of each token's first matcher
	lastPos  []uint // chain bit index of each token's last matcher

	firstBits   uint64 // bits at all first positions
	entryAlways uint64 // chain entries armed on every cycle
	entryAtZero uint64 // chain entries armed only at offset 0 (^ anchor)

	predMask   []uint32 // token-state predecessor sets
	withPreds  []int    // tokens with a non-empty predecessor set
	holdMask   uint32
	acceptMask uint32

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
	u := &Unit{
		prog:     prog,
		nTokens:  n,
		firstPos: make([]uint, n),
		lastPos:  make([]uint, n),
		predMask: make([]uint32, n),
	}
	pos := uint(0)
	for j := 0; j < n; j++ {
		tok := &prog.Tokens[j]
		if int(pos)+tok.Len() > MaxChainPositions {
			return nil, ErrChainTooLong
		}
		u.firstPos[j] = pos
		u.lastPos[j] = pos + uint(tok.Len()) - 1
		u.firstBits |= 1 << pos
		for k := 0; k < tok.Len(); k++ {
			m := &tok.Matchers[k]
			for b := 0; b < 256; b++ {
				if m.Matches(byte(b), prog.FoldCase) {
					u.hit[b] |= 1 << (pos + uint(k))
				}
			}
		}
		pos += uint(tok.Len())
	}
	for j := 0; j < n; j++ {
		fb := uint64(1) << u.firstPos[j]
		if prog.Start[j] {
			if !prog.Anchored || prog.StartGapped[j] {
				u.entryAlways |= fb
			} else {
				u.entryAtZero |= fb
			}
		}
		for _, p := range prog.Preds[j] {
			u.predMask[j] |= 1 << uint(p)
		}
		if u.predMask[j] != 0 {
			u.withPreds = append(u.withPreds, j)
		}
		if prog.Hold[j] {
			u.holdMask |= 1 << uint(j)
		}
		if prog.Accept[j] {
			u.acceptMask |= 1 << uint(j)
		}
	}
	return u, nil
}

// Program returns the configured token program.
func (u *Unit) Program() *token.Program { return u.prog }

// Stats returns a snapshot of the accumulated work counters.
func (u *Unit) Stats() Stats { return u.stats }

// ResetStats clears the work counters (per-job accounting).
func (u *Unit) ResetStats() { u.stats = Stats{} }

// Match feeds s through the PU one byte per cycle and returns the match
// index per the HUDF encoding: 0 for no match, else the 1-based position of
// the first match's last character, saturating at 65535.
func (u *Unit) Match(s []byte) uint16 {
	u.stats.Strings++
	var chain uint64
	var active uint32
	endAnchored := u.prog.EndAnchored
	accept := u.acceptMask
	hold := u.holdMask
	n := u.nTokens

	for i := 0; i < len(s); i++ {
		entry := u.entryAlways
		if i == 0 {
			entry |= u.entryAtZero
		}
		if active != 0 {
			for _, j := range u.withPreds {
				if u.predMask[j]&active != 0 {
					entry |= 1 << u.firstPos[j]
				}
			}
		}
		chain = ((chain << 1) &^ u.firstBits) | entry
		chain &= u.hit[s[i]]

		var fired uint32
		for j := 0; j < n; j++ {
			fired |= uint32(chain>>u.lastPos[j]&1) << uint(j)
		}
		active = fired | (hold & active)

		if fired&accept != 0 {
			if !endAnchored {
				u.stats.Bytes += uint64(i + 1)
				u.stats.Matches++
				return satPos(i + 1)
			}
			if i == len(s)-1 {
				u.stats.Bytes += uint64(len(s))
				u.stats.Matches++
				return satPos(len(s))
			}
		}
	}
	u.stats.Bytes += uint64(len(s))
	if endAnchored && active&accept&hold != 0 {
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
		u.prog.NumStates(), u.prog.NumChars(), u.lastPos[u.nTokens-1]+1)
}
