package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of every metric in a registry —
// the test- and exporter-facing view.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for k, v := range r.ctrs {
		ctrs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range ctrs {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// sortedKeys returns the keys of a metric map in lexicographic order — the
// single ordering every text exporter uses, so repeated exports of the same
// state are byte-identical.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText writes the snapshot in expvar-style text: one `name value` line
// per counter and gauge; histograms flatten to `name.le.<bound>`,
// `name.le.inf`, `name.count` and `name.sum` lines. Metrics are ordered by
// name and histogram buckets by bound, so the output is deterministic.
func (r *Registry) WriteText(w io.Writer) {
	snap := r.Snapshot()
	for _, k := range sortedKeys(snap.Counters) {
		fmt.Fprintf(w, "%s %d\n", k, snap.Counters[k])
	}
	for _, k := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(w, "%s %d\n", k, snap.Gauges[k])
		if base, bp, ok := basisPointGauge(snap, k); ok {
			fmt.Fprintf(w, "%s_pct %d.%02d\n", base, bp/100, bp%100)
		}
	}
	for _, k := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[k]
		for i, b := range h.Bounds {
			fmt.Fprintf(w, "%s.le.%d %d\n", k, b, h.Counts[i])
		}
		if n := len(h.Bounds); n < len(h.Counts) {
			fmt.Fprintf(w, "%s.le.inf %d\n", k, h.Counts[n])
		}
		fmt.Fprintf(w, "%s.count %d\n", k, h.Count)
		fmt.Fprintf(w, "%s.sum %d\n", k, h.Sum)
	}
}

// basisPointGauge recognizes gauges that store basis points (name suffix
// "_bp"): they keep sub-percent precision in storage — a single engine's
// ~90.63% QPI utilization must not truncate to 90, let alone a
// low-utilization run to 0 — and the exporters render the derived percent
// view (two decimals, exact integer math) next to the raw value. A
// same-base "_pct" gauge, if something still sets one, wins.
func basisPointGauge(snap Snapshot, name string) (base string, bp int64, ok bool) {
	base, found := strings.CutSuffix(name, "_bp")
	if !found {
		return "", 0, false
	}
	bp = snap.Gauges[name]
	if bp < 0 {
		return "", 0, false
	}
	if _, exists := snap.Gauges[base+"_pct"]; exists {
		return "", 0, false
	}
	return base, bp, true
}

// promName sanitizes a metric name for the Prometheus exposition format:
// dots (the registry's namespace separator) become underscores, anything
// else outside [a-zA-Z0-9_] does too.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): `# TYPE` comments, sanitized metric names, and
// cumulative histogram buckets with the canonical le="+Inf" terminator.
// Output order is deterministic (names sorted, buckets by bound).
func (r *Registry) WritePrometheus(w io.Writer) {
	snap := r.Snapshot()
	for _, k := range sortedKeys(snap.Counters) {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, snap.Counters[k])
	}
	for _, k := range sortedKeys(snap.Gauges) {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, snap.Gauges[k])
		if base, bp, ok := basisPointGauge(snap, k); ok {
			pn := promName(base + "_pct")
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d.%02d\n", pn, pn, bp/100, bp%100)
		}
	}
	for _, k := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[k]
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

// MarshalJSON encodes the span tree (names, wall/sim nanoseconds,
// attributes, children).
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.toJSON())
}
