package strmatch

import (
	"errors"
)

// LikePattern is a compiled SQL LIKE / ILIKE pattern: `%` matches any
// (possibly empty) sequence, `_` matches exactly one byte, and a backslash
// escapes the next character.
type LikePattern struct {
	source   string
	segments []likeSegment
	// openStart/openEnd: the pattern begins/ends with %.
	openStart, openEnd bool
	fold               bool
}

// likeSegment is a literal chunk between % wildcards; wild marks `_`
// positions inside the chunk. Chunks without wildcards get a Boyer-Moore
// searcher.
type likeSegment struct {
	chunk []byte
	wild  []bool
	bm    *BoyerMoore // nil when the chunk contains `_`
}

// ErrBadEscape reports a trailing backslash in a LIKE pattern.
var ErrBadEscape = errors.New("strmatch: trailing escape in LIKE pattern")

// CompileLike compiles a LIKE pattern; foldCase selects ILIKE semantics.
func CompileLike(pattern string, foldCase bool) (*LikePattern, error) {
	p := &LikePattern{source: pattern, fold: foldCase}
	var chunk []byte
	var wild []bool
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		seg := likeSegment{chunk: chunk, wild: wild}
		if !anyTrue(wild) {
			seg.bm = NewBoyerMoore(chunk, foldCase)
		}
		p.segments = append(p.segments, seg)
		chunk, wild = nil, nil
	}
	lastWasPercent := false
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		if c == '%' {
			if i == 0 {
				p.openStart = true
			}
			flush()
			lastWasPercent = true
			continue
		}
		lastWasPercent = false
		switch c {
		case '_':
			chunk = append(chunk, 0)
			wild = append(wild, true)
		case '\\':
			if i+1 >= len(pattern) {
				return nil, ErrBadEscape
			}
			i++
			chunk = append(chunk, pattern[i])
			wild = append(wild, false)
		default:
			chunk = append(chunk, c)
			wild = append(wild, false)
		}
	}
	flush()
	p.openEnd = lastWasPercent
	if pattern == "" {
		p.openStart, p.openEnd = false, false
	}
	return p, nil
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// Source returns the original pattern text.
func (p *LikePattern) Source() string { return p.source }

// Segments returns the number of literal segments (between % wildcards).
func (p *LikePattern) Segments() int { return len(p.segments) }

// Match reports whether s matches the LIKE pattern (entire-value semantics,
// as in SQL).
func (p *LikePattern) Match(s []byte) bool {
	if len(p.segments) == 0 {
		return p.openStart || len(s) == 0
	}
	pos := 0
	first, last := 0, len(p.segments)-1

	if !p.openStart {
		seg := &p.segments[first]
		if !p.segmentAt(seg, s, 0) {
			return false
		}
		pos = len(seg.chunk)
		first++
		if first > last {
			// Single anchored segment: with a trailing % any
			// remainder is fine, otherwise it must consume all.
			return p.openEnd || pos == len(s)
		}
	}
	end := len(s)
	var lastSeg *likeSegment
	if !p.openEnd {
		lastSeg = &p.segments[last]
		end = len(s) - len(lastSeg.chunk)
		last--
	}
	for i := first; i <= last; i++ {
		seg := &p.segments[i]
		at := p.findSegment(seg, s, pos)
		if at < 0 {
			return false
		}
		pos = at + len(seg.chunk)
	}
	if lastSeg != nil {
		if end < pos {
			return false
		}
		if !p.segmentAt(lastSeg, s, end) {
			return false
		}
	} else if pos > len(s) {
		return false
	}
	return true
}

// MatchString is Match over a string.
func (p *LikePattern) MatchString(s string) bool { return p.Match([]byte(s)) }

// segmentAt reports whether seg's chunk matches s starting exactly at off.
func (p *LikePattern) segmentAt(seg *likeSegment, s []byte, off int) bool {
	if off < 0 || off+len(seg.chunk) > len(s) {
		return false
	}
	for i, c := range seg.chunk {
		if seg.wild[i] {
			continue
		}
		h := s[off+i]
		if p.fold {
			h = asciiLower(h)
			c = asciiLower(c)
		}
		if h != c {
			return false
		}
	}
	return true
}

// findSegment finds the first occurrence of seg at or after from.
func (p *LikePattern) findSegment(seg *likeSegment, s []byte, from int) int {
	if seg.bm != nil {
		return seg.bm.Find(s, from)
	}
	for at := from; at+len(seg.chunk) <= len(s); at++ {
		if p.segmentAt(seg, s, at) {
			return at
		}
	}
	return -1
}

// FoldCase reports whether the pattern uses ILIKE semantics.
func (p *LikePattern) FoldCase() bool { return p.fold }
