package explain

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/telemetry"
)

// Options configures a calibration Auditor.
type Options struct {
	// Window is the ring size: how many recent executed records feed the
	// rolling statistics (default 256).
	Window int
	// BandPct is the drift band: when a term's rolling mean relative error
	// exceeds this percentage the alarm latches (default 25).
	BandPct float64
	// MinSamples is how many observations of a term the auditor requires
	// before it will alarm on it (default 8) — one outlier is noise, a
	// window of them is drift.
	MinSamples int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.BandPct <= 0 {
		o.BandPct = 25
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 8
	}
	return o
}

// Auditor is the continuous cost-model calibration auditor: a ring of the
// most recent predicted-vs-actual decision records feeding rolling per-term
// error statistics (mean and percentile relative error, signed bias). The
// statistics are exported as telemetry gauges and through doppiomon's
// /calibration endpoint; when a term's rolling mean error leaves the
// configured band the auditor latches a drift alarm — a flight-recorder
// control event plus a calib.alarm.<term> gauge — and clears it when the
// error returns inside the band. This is the hook a future self-tuning pass
// consumes: it says *which* cost term the model gets wrong, by how much, and
// in which direction.
//
// All methods are nil-safe; an unwired auditor costs one branch.
type Auditor struct {
	opts Options

	mu       sync.Mutex
	ring     []*Record
	head     int
	count    int
	observed int64
	skipped  int64
	alarmed  map[string]bool
	tel      *telemetry.Registry
	rec      *flightrec.Recorder
}

// NewAuditor creates an auditor with the given options.
func NewAuditor(opts Options) *Auditor {
	opts = opts.withDefaults()
	return &Auditor{
		opts:    opts,
		ring:    make([]*Record, opts.Window),
		alarmed: make(map[string]bool),
	}
}

// SetTelemetry points the auditor's gauges and counters at a registry.
func (a *Auditor) SetTelemetry(r *telemetry.Registry) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tel = r
	a.mu.Unlock()
}

// SetRecorder points the drift alarm at a flight recorder.
func (a *Auditor) SetRecorder(r *flightrec.Recorder) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec = r
	a.mu.Unlock()
}

// Observe feeds one finished decision record into the rolling window and
// recomputes the per-term statistics and drift alarms. Records that never
// executed are ignored; degraded queries are counted but excluded from the
// window (their actuals describe the software fallback, not the plan the
// model priced).
func (a *Auditor) Observe(r *Record) {
	if a == nil || r == nil || !r.Executed {
		return
	}
	a.mu.Lock()
	a.observed++
	if r.Degraded {
		a.skipped++
		tel := a.tel
		a.mu.Unlock()
		tel.Counter("calib.skipped_degraded").Inc()
		return
	}
	if r.SharedScan {
		// A follower's actuals describe a coalesced job group, not the plan
		// the model priced for this query alone.
		a.skipped++
		tel := a.tel
		a.mu.Unlock()
		tel.Counter("calib.skipped_shared").Inc()
		return
	}
	a.ring[a.head] = r
	a.head = (a.head + 1) % len(a.ring)
	if a.count < len(a.ring) {
		a.count++
	}
	stats := a.statsLocked()
	tel, rec := a.tel, a.rec
	var fired, cleared []string
	for _, ts := range stats {
		was := a.alarmed[ts.Term]
		if ts.Alarm && !was {
			a.alarmed[ts.Term] = true
			fired = append(fired, ts.Term)
		} else if !ts.Alarm && was {
			a.alarmed[ts.Term] = false
			cleared = append(cleared, ts.Term)
		}
	}
	a.mu.Unlock()

	tel.Counter("calib.records").Inc()
	for _, ts := range stats {
		prefix := "calib." + ts.Term
		tel.Gauge(prefix + ".samples").Set(int64(ts.Samples))
		tel.Gauge(prefix + ".mean_rel_err_bp").Set(int64(ts.MeanRelErrPct * 100))
		tel.Gauge(prefix + ".p95_rel_err_bp").Set(int64(ts.P95RelErrPct * 100))
		tel.Gauge(prefix + ".bias_bp").Set(int64(ts.BiasPct * 100))
	}
	for _, ts := range stats {
		for _, term := range fired {
			if ts.Term != term {
				continue
			}
			tel.Counter("calib.drift_alarms").Inc()
			tel.Gauge("calib.alarm." + term).Set(1)
			rec.Record(flightrec.Event{
				Type: flightrec.EvCalibDrift, Engine: -1, Unit: -1,
				Note: fmt.Sprintf("term=%s mean=%+.1f%% band=%.0f%% n=%d",
					term, ts.BiasPct, a.opts.BandPct, ts.Samples),
			})
		}
		for _, term := range cleared {
			if ts.Term == term {
				tel.Gauge("calib.alarm." + term).Set(0)
			}
		}
	}
}

// TermStats is the rolling error statistics of one cost term.
type TermStats struct {
	Term    string `json:"term"`
	Samples int    `json:"samples"`
	// MeanRelErrPct is the mean magnitude of relative error, in percent.
	MeanRelErrPct float64 `json:"mean_rel_err_pct"`
	// P50/P95RelErrPct are nearest-rank percentiles of the magnitudes.
	P50RelErrPct float64 `json:"p50_rel_err_pct"`
	P95RelErrPct float64 `json:"p95_rel_err_pct"`
	// BiasPct is the mean *signed* error in percent: positive means the
	// model over-predicts the term, negative under-predicts.
	BiasPct float64 `json:"bias_pct"`
	// Alarm reports whether this term is outside the drift band.
	Alarm bool `json:"alarm"`
}

// Report is the /calibration view: the auditor's configuration, window
// occupancy, per-term statistics and active alarms.
type Report struct {
	Window     int         `json:"window"`
	Observed   int64       `json:"observed"`
	Skipped    int64       `json:"skipped_degraded"`
	Samples    int         `json:"samples"`
	BandPct    float64     `json:"band_pct"`
	MinSamples int         `json:"min_samples"`
	Terms      []TermStats `json:"terms"`
	Alarms     []string    `json:"alarms,omitempty"`
}

// Term returns the named term's statistics (zero, false when absent).
func (rep Report) Term(name string) (TermStats, bool) {
	for _, t := range rep.Terms {
		if t.Term == name {
			return t, true
		}
	}
	return TermStats{}, false
}

// Stats computes the rolling report from the current window.
func (a *Auditor) Stats() Report {
	if a == nil {
		return Report{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := Report{
		Window:     len(a.ring),
		Observed:   a.observed,
		Skipped:    a.skipped,
		Samples:    a.count,
		BandPct:    a.opts.BandPct,
		MinSamples: a.opts.MinSamples,
		Terms:      a.statsLocked(),
	}
	for _, t := range rep.Terms {
		if t.Alarm {
			rep.Alarms = append(rep.Alarms, t.Term)
		}
	}
	return rep
}

// statsLocked computes per-term statistics over the retained window. Caller
// holds a.mu.
func (a *Auditor) statsLocked() []TermStats {
	type acc struct {
		rels   []float64
		signed float64
	}
	byTerm := make(map[string]*acc)
	for i := 0; i < a.count; i++ {
		r := a.ring[(a.head-a.count+i+len(a.ring))%len(a.ring)]
		for _, e := range r.Errors {
			c := byTerm[e.Term]
			if c == nil {
				c = &acc{}
				byTerm[e.Term] = c
			}
			c.rels = append(c.rels, e.RelErr)
			c.signed += e.SignedErr
		}
	}
	var out []TermStats
	for _, term := range Terms {
		c := byTerm[term]
		if c == nil {
			continue
		}
		sort.Float64s(c.rels)
		n := len(c.rels)
		var sum float64
		for _, v := range c.rels {
			sum += v
		}
		ts := TermStats{
			Term:          term,
			Samples:       n,
			MeanRelErrPct: sum / float64(n) * 100,
			P50RelErrPct:  c.rels[(n-1)*50/100] * 100,
			P95RelErrPct:  c.rels[(n-1)*95/100] * 100,
			BiasPct:       c.signed / float64(n) * 100,
		}
		ts.Alarm = n >= a.opts.MinSamples && ts.MeanRelErrPct > a.opts.BandPct
		out = append(out, ts)
	}
	return out
}

// Records returns up to limit of the most recent retained records, oldest
// first (all of them when limit <= 0).
func (a *Auditor) Records(limit int) []*Record {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.count
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]*Record, 0, n)
	for i := a.count - n; i < a.count; i++ {
		out = append(out, a.ring[(a.head-a.count+i+len(a.ring))%len(a.ring)])
	}
	return out
}

// WriteText renders the report as the \health-style table.
func (rep Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "calibration: %d/%d record(s) in window, %d observed, %d degraded skipped, band ±%.0f%%\n",
		rep.Samples, rep.Window, rep.Observed, rep.Skipped, rep.BandPct)
	if len(rep.Terms) == 0 {
		fmt.Fprintln(w, "  no executed records yet")
		return
	}
	fmt.Fprintf(w, "  %-13s %8s %10s %10s %10s %10s  %s\n",
		"term", "samples", "mean|err|", "p50", "p95", "bias", "alarm")
	for _, t := range rep.Terms {
		alarm := "-"
		if t.Alarm {
			alarm = "DRIFT"
		}
		fmt.Fprintf(w, "  %-13s %8d %9.1f%% %9.1f%% %9.1f%% %+9.1f%%  %s\n",
			t.Term, t.Samples, t.MeanRelErrPct, t.P50RelErrPct, t.P95RelErrPct, t.BiasPct, alarm)
	}
}
