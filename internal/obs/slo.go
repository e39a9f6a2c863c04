// The windowed SLO engine: sliding-window service-level indicators over
// the simulated timebase. Per placement class it keeps a rotating-slot
// latency histogram (p50/p95/p99 by interpolation, exact to one bucket)
// and, across all classes, availability counters over two windows — fast
// (5 s of simulated time) and slow (60 s) — from which it computes the
// error-budget burn rate: observed error rate over the budget the
// availability target leaves. The multi-window alert fires only when BOTH
// windows burn over the threshold (the SRE-workbook shape: the slow
// window proves it is not a blip, the fast window proves it is still
// happening), latches a flightrec slo-burn event, and is surfaced by
// /health and /slo. Everything advances on event timestamps — never the
// wall clock — so identical runs alert identically.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// SLOTargets are the configurable objectives.
type SLOTargets struct {
	// AvailabilityPct is the fraction of submitted queries that must not
	// end in an error outcome (degraded/shed/deadline/failed), e.g. 99.0.
	// The error budget is what it leaves: 1%.
	AvailabilityPct float64 `json:"availability_pct"`
	// LatencyP99NS is the per-class p99 latency objective in simulated
	// nanoseconds.
	LatencyP99NS int64 `json:"latency_p99_ns"`
}

// SLOOptions configure the engine; the zero value selects the defaults.
type SLOOptions struct {
	Targets SLOTargets
	// FastWindowNS/SlowWindowNS are the two burn-rate windows on the
	// simulated timeline (defaults 5 s and 60 s).
	FastWindowNS int64
	SlowWindowNS int64
	// Slots is the rotating sub-window count per window (default 16).
	Slots int
	// BurnThreshold is the burn-rate multiple both windows must exceed to
	// alert (default 2: the budget is burning at least twice as fast as it
	// can sustainably be spent — the SRE workbook's "ticket" class).
	BurnThreshold float64
	// MinSamples gates the alert until the fast window has seen this many
	// queries (default 8), so a lone early error cannot page.
	MinSamples int64
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Targets.AvailabilityPct <= 0 || o.Targets.AvailabilityPct >= 100 {
		o.Targets.AvailabilityPct = 99.0
	}
	if o.Targets.LatencyP99NS <= 0 {
		o.Targets.LatencyP99NS = int64(100 * sim.Millisecond / sim.Nanosecond)
	}
	if o.FastWindowNS <= 0 {
		o.FastWindowNS = int64(5 * sim.Second / sim.Nanosecond)
	}
	if o.SlowWindowNS <= 0 {
		o.SlowWindowNS = int64(60 * sim.Second / sim.Nanosecond)
	}
	if o.Slots <= 0 {
		o.Slots = 16
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = 2
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 8
	}
	return o
}

// latencyBounds are the shared log₂-spaced bucket bounds of the windowed
// latency histograms: 1 µs up to ~8.6 s of simulated time, so a quantile
// estimate is never more than a factor-of-two bucket off.
func latencyBounds() []int64 {
	bounds := make([]int64, 0, 24)
	for b := int64(1000); b <= int64(8.6e9); b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// SLO is the windowed SLO engine. All methods are nil-safe.
type SLO struct {
	mu   sync.Mutex
	opts SLOOptions
	// lat holds one slow-window latency histogram per placement class.
	lat map[string]*telemetry.WindowedHistogram
	// fast and slow are the availability windows: one-bound histograms fed
	// 1 for an error outcome and 0 otherwise, so a snapshot's Count is the
	// queries submitted inside the window and its Sum the errors.
	fast, slow *telemetry.WindowedHistogram
	lastNS     int64 // latest event timestamp seen (the engine's "now")

	alert       bool
	alertsFired int64
	submitted   int64
	errors      int64
	byOutcome   map[Outcome]int64

	tel *telemetry.Registry
	rec *flightrec.Recorder
}

// NewSLO builds an engine with the given options.
func NewSLO(opts SLOOptions) *SLO {
	opts = opts.withDefaults()
	return &SLO{
		opts:      opts,
		lat:       make(map[string]*telemetry.WindowedHistogram),
		fast:      telemetry.NewWindowedHistogram(opts.FastWindowNS, opts.Slots, 0),
		slow:      telemetry.NewWindowedHistogram(opts.SlowWindowNS, opts.Slots, 0),
		byOutcome: make(map[Outcome]int64),
	}
}

// SetTelemetry mirrors the SLIs into slo.* gauges and counters.
func (s *SLO) SetTelemetry(tel *telemetry.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tel = tel
	s.mu.Unlock()
}

// SetRecorder wires the flight recorder the burn alert latches into.
func (s *SLO) SetRecorder(rec *flightrec.Recorder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

// Targets returns the configured objectives.
func (s *SLO) Targets() SLOTargets {
	if s == nil {
		return SLOOptions{}.withDefaults().Targets
	}
	return s.opts.Targets
}

// Alerting reports whether the burn-rate alert is currently latched.
func (s *SLO) Alerting() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alert
}

// Observe feeds one finished query into the SLIs and re-evaluates the
// burn-rate alert at the event's simulated timestamp.
func (s *SLO) Observe(ev Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := ev.SimNS
	if now > s.lastNS {
		s.lastNS = now
	}
	s.submitted++
	s.byOutcome[ev.Outcome]++
	var errs int64
	if ev.Outcome.IsError() {
		errs = 1
	}
	s.errors += errs
	s.fast.Observe(now, errs)
	s.slow.Observe(now, errs)
	// Latency SLIs track queries that actually produced a result; a shed
	// or refused query has no service time to speak of.
	if ev.Outcome == OutcomeCompleted || ev.Outcome == OutcomeDegraded {
		class := ev.Placement
		if class == "" {
			class = "unknown"
		}
		h, ok := s.lat[class]
		if !ok {
			h = telemetry.NewWindowedHistogram(s.opts.SlowWindowNS, s.opts.Slots, latencyBounds()...)
			s.lat[class] = h
		}
		h.Observe(now, ev.TotalNS)
	}
	s.evaluateLocked(now)
}

// burnLocked computes one window's burn rate: the observed error rate over
// the error budget the availability target leaves.
func (s *SLO) burnLocked(w *telemetry.WindowedHistogram, now int64) (rate, burn float64, submitted int64) {
	snap := w.Snapshot(now)
	if snap.Count == 0 {
		return 0, 0, 0
	}
	rate = float64(snap.Sum) / float64(snap.Count)
	budget := 1 - s.opts.Targets.AvailabilityPct/100
	return rate, rate / budget, snap.Count
}

// evaluateLocked re-computes both windows' burn and drives the alert's
// latch/clear transitions. Caller holds s.mu.
func (s *SLO) evaluateLocked(now int64) {
	_, fastBurn, fastSub := s.burnLocked(s.fast, now)
	_, slowBurn, _ := s.burnLocked(s.slow, now)
	s.tel.Gauge("slo.burn.fast_bp").Set(int64(fastBurn * 10000))
	s.tel.Gauge("slo.burn.slow_bp").Set(int64(slowBurn * 10000))
	active := fastSub >= s.opts.MinSamples &&
		fastBurn >= s.opts.BurnThreshold && slowBurn >= s.opts.BurnThreshold
	switch {
	case active && !s.alert:
		s.alert = true
		s.alertsFired++
		s.tel.Counter("slo.alerts_fired").Inc()
		s.tel.Gauge("slo.alert").Set(1)
		s.rec.Record(flightrec.Event{
			Type:   flightrec.EvSLOBurn,
			Sim:    sim.Time(now) * sim.Nanosecond,
			Engine: -1,
			Unit:   -1,
			Arg:    1,
			Note: fmt.Sprintf("error budget burning %.1fx fast / %.1fx slow (threshold %.1fx)",
				fastBurn, slowBurn, s.opts.BurnThreshold),
		})
	case !active && s.alert:
		s.alert = false
		s.tel.Gauge("slo.alert").Set(0)
		s.rec.Record(flightrec.Event{
			Type:   flightrec.EvSLOBurn,
			Sim:    sim.Time(now) * sim.Nanosecond,
			Engine: -1,
			Unit:   -1,
			Arg:    0,
			Note: fmt.Sprintf("burn-rate alert cleared (%.1fx fast / %.1fx slow)",
				fastBurn, slowBurn),
		})
	}
}

// ClassSLI is one placement class's windowed latency view.
type ClassSLI struct {
	Class string `json:"class"`
	// Count is the completions inside the slow window.
	Count int64 `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
	// LatencyOK reports the class against the p99 objective.
	LatencyOK bool `json:"latency_ok"`
}

// SLOReport is the engine's full rendered state (the /slo document).
type SLOReport struct {
	SimNowNS      int64      `json:"sim_now_ns"`
	Targets       SLOTargets `json:"targets"`
	ErrorBudget   float64    `json:"error_budget"`
	FastWindowNS  int64      `json:"fast_window_ns"`
	SlowWindowNS  int64      `json:"slow_window_ns"`
	BurnThreshold float64    `json:"burn_threshold"`

	// Totals since start, plus the per-outcome split.
	Submitted int64             `json:"submitted"`
	Errors    int64             `json:"errors"`
	ByOutcome map[Outcome]int64 `json:"by_outcome"`

	// Windowed availability SLIs and their burn rates.
	FastRate float64 `json:"fast_error_rate"`
	SlowRate float64 `json:"slow_error_rate"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`

	AlertActive bool  `json:"alert_active"`
	AlertsFired int64 `json:"alerts_fired"`

	Classes []ClassSLI `json:"classes"`
}

// Report renders the engine's state at the latest observed simulated time.
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{Targets: SLOOptions{}.withDefaults().Targets, ByOutcome: map[Outcome]int64{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.lastNS
	rep := SLOReport{
		SimNowNS:      now,
		Targets:       s.opts.Targets,
		ErrorBudget:   1 - s.opts.Targets.AvailabilityPct/100,
		FastWindowNS:  s.opts.FastWindowNS,
		SlowWindowNS:  s.opts.SlowWindowNS,
		BurnThreshold: s.opts.BurnThreshold,
		Submitted:     s.submitted,
		Errors:        s.errors,
		ByOutcome:     make(map[Outcome]int64, len(s.byOutcome)),
		AlertActive:   s.alert,
		AlertsFired:   s.alertsFired,
	}
	for k, v := range s.byOutcome {
		rep.ByOutcome[k] = v
	}
	rep.FastRate, rep.FastBurn, _ = s.burnLocked(s.fast, now)
	rep.SlowRate, rep.SlowBurn, _ = s.burnLocked(s.slow, now)
	classes := make([]string, 0, len(s.lat))
	for c := range s.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		h := s.lat[c]
		snap := h.Snapshot(now)
		cs := ClassSLI{
			Class: c,
			Count: snap.Count,
			P50NS: h.Quantile(now, 0.50),
			P95NS: h.Quantile(now, 0.95),
			P99NS: h.Quantile(now, 0.99),
			MaxNS: h.Max(now),
		}
		cs.LatencyOK = cs.P99NS <= s.opts.Targets.LatencyP99NS
		rep.Classes = append(rep.Classes, cs)
	}
	return rep
}

// ms renders simulated nanoseconds as milliseconds for the text report.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// WriteText renders the report the way doppiosh's \slo prints it.
func (r SLOReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "SLO targets: availability %.2f%% (error budget %.2f%%), p99 latency <= %.3f ms\n",
		r.Targets.AvailabilityPct, r.ErrorBudget*100, ms(r.Targets.LatencyP99NS))
	fmt.Fprintf(w, "windows: fast %.0f s / slow %.0f s of simulated time, burn threshold %.1fx\n",
		float64(r.FastWindowNS)/1e9, float64(r.SlowWindowNS)/1e9, r.BurnThreshold)
	fmt.Fprintf(w, "submitted %d, errors %d", r.Submitted, r.Errors)
	if len(r.ByOutcome) > 0 {
		outs := make([]string, 0, len(r.ByOutcome))
		for o := range r.ByOutcome {
			outs = append(outs, string(o))
		}
		sort.Strings(outs)
		fmt.Fprint(w, " (")
		for i, o := range outs {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s %d", o, r.ByOutcome[Outcome(o)])
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "burn rate: fast %.2fx (error rate %.2f%%), slow %.2fx (error rate %.2f%%)\n",
		r.FastBurn, r.FastRate*100, r.SlowBurn, r.SlowRate*100)
	if r.AlertActive {
		fmt.Fprintf(w, "ALERT: error budget burning over %.1fx on both windows (%d fired total)\n",
			r.BurnThreshold, r.AlertsFired)
	} else {
		fmt.Fprintf(w, "alert: quiet (%d fired total)\n", r.AlertsFired)
	}
	if len(r.Classes) == 0 {
		fmt.Fprintln(w, "latency: no completions in window yet")
		return
	}
	fmt.Fprintf(w, "%-10s %8s %12s %12s %12s %12s  %s\n",
		"class", "count", "p50", "p95", "p99", "max", "p99 SLO")
	for _, c := range r.Classes {
		verdict := "ok"
		if !c.LatencyOK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "%-10s %8d %10.3fms %10.3fms %10.3fms %10.3fms  %s\n",
			c.Class, c.Count, ms(c.P50NS), ms(c.P95NS), ms(c.P99NS), ms(c.MaxNS), verdict)
	}
}
