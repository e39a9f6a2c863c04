// Package telemetry is the zero-dependency observability substrate of the
// reproduction: typed counters, gauges and fixed-bucket histograms in a
// Registry, plus lightweight spans that model the lifecycle of a hybrid
// CPU-FPGA query (SQL parse → plan → BAT scan → HUDF config-gen → job submit
// → QPI transfer → engine dispatch → PU match → collect → CPU post-process).
//
// The design mirrors what the paper's prototype exposes in hardware: the
// engines write per-job statistics into the Device Status Memory (§3 step
// 8), and the evaluation (Figures 8–13) is built from PU utilization, heap
// bandwidth and per-phase response-time breakdowns. Every component of one
// simulated stack feeds that System's registry, so one snapshot answers where
// a query spent its simulated cycles and what the hardware did to serve it.
//
// Metrics exist in two forms. Registry.Counter / Gauge / Histogram
// get-or-create a named metric — the common case. Components that keep
// per-instance statistics (a shared-memory Region, a Processing Unit)
// allocate *detached* instances with NewCounter / NewGauge and expose their
// legacy Stats structs as thin views over them; AttachCounter / AttachGauge
// later publish those instances under stable names. All operations are safe
// for concurrent use and nil-receiver safe, so unwired components cost one
// predictable branch per update.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (but resettable) int64 metric. The
// zero value is ready to use; all methods are nil-safe.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a detached counter (not in any registry).
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset sets the counter back to zero (per-job accounting).
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is a settable int64 metric (queue depth, live bytes, utilization).
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a detached gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations. A bound b
// means "≤ b"; observations above the last bound land in the implicit
// overflow bucket, so len(counts) == len(bounds)+1.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram builds a detached histogram with the given upper bounds.
// Bounds are sorted and deduplicated.
func NewHistogram(bounds ...int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Int64, len(uniq)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return append([]int64(nil), h.bounds...)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds ("≤ bound").
	Bounds []int64 `json:"bounds"`
	// Counts has one entry per bound plus the overflow bucket.
	Counts []int64 `json:"counts"`
	// Count and Sum summarize all observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a named collection of metrics, safe for concurrent use. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a detached counter, so unwired components still work.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return NewCounter()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = NewCounter()
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return NewGauge()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls reuse the existing buckets).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// AttachCounter publishes a detached counter under the given name (replacing
// any previous metric of that name — last attach wins, as when several
// Systems are handed one registry).
func (r *Registry) AttachCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctrs[name] = c
}

// AttachGauge publishes a detached gauge under the given name.
func (r *Registry) AttachGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = g
}
