package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the data-race check, and
// the final values verify no increment was lost.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", 10, 100).Observe(int64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("g").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("h").Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Errorf("counter = %d, want 6", c.Value())
	}
	if reg.Counter("x") != c {
		t.Error("Counter is not get-or-create")
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("Reset did not clear")
	}
	g := reg.Gauge("y")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Errorf("gauge = %d, want 40", g.Value())
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: bound b holds
// observations ≤ b, the overflow bucket everything above the last bound.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{0, 9, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCounts := []int64{3, 2, 2, 2} // ≤10: {0,9,10}; ≤100: {11,100}; ≤1000: {101,1000}; >1000: {1001,5000}
	if !reflect.DeepEqual(s.Counts, wantCounts) {
		t.Errorf("counts = %v, want %v", s.Counts, wantCounts)
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if want := int64(0 + 9 + 10 + 11 + 100 + 101 + 1000 + 1001 + 5000); s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	h := NewHistogram(100, 10, 100, 1)
	if want := []int64{1, 10, 100}; !reflect.DeepEqual(h.Bounds(), want) {
		t.Errorf("bounds = %v, want %v", h.Bounds(), want)
	}
}

// TestExporterRoundTrip registers metrics, records values, exports JSON,
// parses it back and compares — the register → record → JSON → parse →
// compare loop of the issue.
func TestExporterRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.jobs").Add(7)
	reg.Counter("qpi.bytes").Add(123456)
	reg.Gauge("hal.queue_depth").Set(3)
	reg.Histogram("scan.ns", 100, 1000).Observe(50)
	reg.Histogram("scan.ns").Observe(5000)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if !reflect.DeepEqual(parsed, reg.Snapshot()) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", parsed, reg.Snapshot())
	}
	if parsed.Counter("qpi.bytes") != 123456 || parsed.Gauge("hal.queue_depth") != 3 {
		t.Errorf("parsed values wrong: %+v", parsed)
	}
}

func TestWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.counter").Add(2)
	reg.Gauge("a.gauge").Set(1)
	// Two-digit and single-digit bounds: numeric bucket order must win over
	// the lexicographic order a naive line sort would produce (le.10 < le.2).
	reg.Histogram("h", 10, 2).Observe(3)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	got := buf.String()
	want := strings.Join([]string{
		"b.counter 2",
		"a.gauge 1",
		"h.le.2 0",
		"h.le.10 1",
		"h.le.inf 0",
		"h.count 1",
		"h.sum 3",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("text export:\n got %q\nwant %q", got, want)
	}
	// Determinism: a second export of the same state is byte-identical.
	var again bytes.Buffer
	reg.WriteText(&again)
	if again.String() != got {
		t.Errorf("text export not deterministic:\n1st %q\n2nd %q", got, again.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.queries").Add(4)
	reg.Gauge("hal.engines.healthy").Set(3)
	h := reg.Histogram("scan.ns", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	want := strings.Join([]string{
		"# TYPE core_queries counter",
		"core_queries 4",
		"# TYPE hal_engines_healthy gauge",
		"hal_engines_healthy 3",
		"# TYPE scan_ns histogram",
		`scan_ns_bucket{le="10"} 1`,
		`scan_ns_bucket{le="100"} 2`,
		`scan_ns_bucket{le="+Inf"} 3`,
		"scan_ns_sum 5055",
		"scan_ns_count 3",
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("prometheus export:\n got %q\nwant %q", got, want)
	}
}

// TestAttach verifies detached instances (the thin-view consolidation path:
// shmem Region gauges, PU counters) publish under stable names and that a
// later attach replaces an earlier one.
func TestAttach(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter()
	c.Add(9)
	reg.AttachCounter("shmem.page_faults", c)
	if got := reg.Snapshot().Counter("shmem.page_faults"); got != 9 {
		t.Errorf("attached counter = %d, want 9", got)
	}
	c2 := NewCounter()
	c2.Add(1)
	reg.AttachCounter("shmem.page_faults", c2)
	if got := reg.Snapshot().Counter("shmem.page_faults"); got != 1 {
		t.Errorf("re-attached counter = %d, want 1 (last attach wins)", got)
	}
	g := NewGauge()
	g.Set(4)
	reg.AttachGauge("shmem.live_slabs", g)
	if got := reg.Snapshot().Gauge("shmem.live_slabs"); got != 4 {
		t.Errorf("attached gauge = %d, want 4", got)
	}
}

// TestNilSafety: a nil registry and nil metrics must be inert, not crash —
// components run unwired in unit tests.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z", 10).Observe(5)
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram count != 0")
	}
	var s *Span
	s.End()
	s.AddSim(1)
	s.SetAttr("a", 1)
	s.Adopt(nil)
	if s.Find("x") != nil || s.Path() != nil {
		t.Error("nil span not inert")
	}
}
