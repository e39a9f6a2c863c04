package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"doppiodb/internal/sim"
)

// Span is one node of a query-lifecycle trace. A span carries two clock
// domains: Wall is real host time (what the Go process spent), Sim is the
// simulated duration from the calibrated platform model (what the modelled
// Xeon+FPGA machine would have spent). The two deliberately diverge — the
// functional engines run orders of magnitude slower or faster than the
// hardware they model — and seeing both is the point.
//
// A span's Sim is its own inclusive simulated duration; children of a
// hardware span (QPI transfer, PU match) may overlap in simulated time the
// way the pipelined circuit overlaps them, so sibling durations do not need
// to sum to the parent's.
//
// Spans are safe for concurrent child creation and attribute updates.
type Span struct {
	Name string

	mu       sync.Mutex
	start    time.Time
	wall     time.Duration
	simT     sim.Time
	attrs    map[string]int64
	children []*Span
}

// NewSpan creates a span without starting the wall clock — for building
// deterministic trees (tests, examples) or spans timed purely in simulated
// time.
func NewSpan(name string) *Span { return &Span{Name: name} }

// StartSpan creates a span and starts its wall clock.
func StartSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// NewChild appends a child span without starting its wall clock.
func (s *Span) NewChild(name string) *Span {
	c := NewSpan(name)
	s.Adopt(c)
	return c
}

// StartChild appends a child span with a running wall clock.
func (s *Span) StartChild(name string) *Span {
	c := StartSpan(name)
	s.Adopt(c)
	return c
}

// Adopt appends an existing span as a child (used to graft a UDF-internal
// trace under the SQL engine's query span).
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End stops the wall clock (no-op if the span was never started or already
// ended).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.start.IsZero() && s.wall == 0 {
		s.wall = time.Since(s.start)
	}
	s.mu.Unlock()
}

// AddSim accrues simulated time to the span.
func (s *Span) AddSim(d sim.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.simT += d
	s.mu.Unlock()
}

// SetAttr records a named integer attribute (row counts, byte volumes,
// cycle counts).
func (s *Span) SetAttr(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64)
	}
	s.attrs[name] = v
	s.mu.Unlock()
}

// Attrs returns a copy of the span's attributes (nil when none).
func (s *Span) Attrs() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.attrs) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.attrs))
	for k, v := range s.attrs {
		out[k] = v
	}
	return out
}

// Wall returns the wall-clock duration (zero until End).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wall
}

// Sim returns the simulated duration.
func (s *Span) Sim() sim.Time {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simT
}

// Children returns a copy of the child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in a depth-first walk (including
// the receiver), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Path returns the names of the tree in depth-first order — handy for
// asserting a trace's shape in tests.
func (s *Span) Path() []string {
	if s == nil {
		return nil
	}
	out := []string{s.Name}
	for _, c := range s.Children() {
		out = append(out, c.Path()...)
	}
	return out
}

// WriteTree renders the span tree with box-drawing connectors, one line per
// span: name, attributes, then the simulated and wall durations (omitted
// when zero).
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		return
	}
	s.writeTree(w, "", "")
}

func (s *Span) writeTree(w io.Writer, selfPrefix, childPrefix string) {
	fmt.Fprintf(w, "%s%s%s\n", selfPrefix, s.Name, s.describe())
	kids := s.Children()
	for i, c := range kids {
		if i == len(kids)-1 {
			c.writeTree(w, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.writeTree(w, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// describe renders the span's attributes and durations.
func (s *Span) describe() string {
	s.mu.Lock()
	attrs := make([]string, 0, len(s.attrs))
	for k, v := range s.attrs {
		attrs = append(attrs, fmt.Sprintf("%s=%d", k, v))
	}
	wall, simT := s.wall, s.simT
	s.mu.Unlock()
	sort.Strings(attrs)

	var b strings.Builder
	if len(attrs) > 0 {
		b.WriteString(" [" + strings.Join(attrs, " ") + "]")
	}
	if simT != 0 {
		fmt.Fprintf(&b, " sim=%v (%dns)", simT, int64(simT/sim.Nanosecond))
	}
	if wall != 0 {
		fmt.Fprintf(&b, " wall=%v", wall.Round(time.Microsecond))
	}
	return b.String()
}

// spanJSON is the exported wire form of a span.
type spanJSON struct {
	Name     string           `json:"name"`
	WallNS   int64            `json:"wall_ns,omitempty"`
	SimNS    int64            `json:"sim_ns,omitempty"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*spanJSON      `json:"children,omitempty"`
}

func (s *Span) toJSON() *spanJSON {
	s.mu.Lock()
	j := &spanJSON{
		Name:   s.Name,
		WallNS: s.wall.Nanoseconds(),
		SimNS:  int64(s.simT / sim.Nanosecond),
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]int64, len(s.attrs))
		for k, v := range s.attrs {
			j.Attrs[k] = v
		}
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}
