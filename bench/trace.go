package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer's public function. Spans of one op share its trace id.
type span struct {
	ID, Parent, Trace int64
	Name              string
	Start, End        time.Duration // since the tracer's epoch
	tr                *tracer
}

// tracer keeps one client's spans in memory. Each client goroutine owns its
// tracer, so recording takes no lock; the run merges them when it ends. A
// nil tracer records nothing, which is how the untraced run shares the op
// code with the traced one.
type tracer struct {
	tid   int // client index; also the high bits of span ids
	epoch time.Time
	spans []*span
}

func newTracer(tid int, epoch time.Time) *tracer {
	return &tracer{tid: tid, epoch: epoch}
}

// root opens the root span of a trace.
func (t *tracer) root(name string, trace int64) *span {
	if t == nil {
		return nil
	}
	return t.open(name, 0, trace)
}

func (t *tracer) open(name string, parent, trace int64) *span {
	s := &span{
		ID:     int64(t.tid)<<40 | int64(len(t.spans)+1),
		Parent: parent,
		Trace:  trace,
		Name:   name,
		tr:     t,
	}
	t.spans = append(t.spans, s)
	s.Start = time.Since(t.epoch)
	return s
}

// child opens a span caused by s. A nil parent yields a nil child.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(name, s.ID, s.Trace)
}

func (s *span) end() {
	if s != nil {
		s.End = time.Since(s.tr.epoch)
	}
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns, per span name, every span's self time in seconds: its
// duration minus the part its children cover. The harness's children run
// one after another inside their parent, so the covered part is their sum.
func selfTimes(spans []*span) map[string][]float64 {
	covered := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], (s.dur() - covered[s.ID]).Seconds())
	}
	return out
}

// checkNesting verifies the trace's shape: every child lies inside its
// parent and carries its parent's trace id.
func checkNesting(spans []*span) error {
	byID := make(map[int64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s has unknown parent %d", s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			return fmt.Errorf("span %s has trace id %d, its parent %s has %d", s.Name, s.Trace, p.Name, p.Trace)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s is not inside its parent %s", s.Name, p.Name)
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace format that
// ui.perfetto.dev and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as Chrome-trace JSON, one track per
// client.
func writeChromeTrace(path string, spans []*span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Pid:  1,
			Tid:  s.tr.tid,
			Args: map[string]any{"trace_id": s.Trace, "span_id": s.ID, "parent_id": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
