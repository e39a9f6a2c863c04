// Package obs is the per-query observability layer of the reproduction:
// a wide-event query log (one canonical structured record per query, in a
// bounded tail-biased ring, exportable as JSONL), a windowed SLO engine
// (sliding-window latency and availability SLIs on the simulated timebase
// with multi-window burn-rate alerts), and the perf-regression comparator
// doppiobench's -baseline gate runs in CI. An Observer bundles the log
// and the SLO engine behind one ObserveQuery call; core.Exec feeds it at
// every query completion — success or error — so every outcome of the
// overload taxonomy (completed, degraded, shed, deadline, canceled,
// failed) lands in both views.
package obs

import (
	"context"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/telemetry"
)

// Options configure an Observer; zero values select the defaults.
type Options struct {
	Log LogOptions
	SLO SLOOptions
}

// Observer bundles the query log and the SLO engine.
type Observer struct {
	Log *Log
	SLO *SLO
}

// New builds an Observer. The log's always-keep latency threshold defaults
// to the SLO latency target, so every SLO-violating query survives
// sampling.
func New(opts Options) *Observer {
	o := &Observer{Log: NewLog(opts.Log), SLO: NewSLO(opts.SLO)}
	if opts.Log.SlowNS <= 0 {
		o.Log.setSlowNS(o.SLO.Targets().LatencyP99NS)
	}
	return o
}

// SetTelemetry mirrors both components' accounting into the registry.
func (o *Observer) SetTelemetry(tel *telemetry.Registry) {
	if o == nil {
		return
	}
	o.Log.SetTelemetry(tel)
	o.SLO.SetTelemetry(tel)
}

// SetRecorder wires the flight recorder the SLO burn alert latches into.
func (o *Observer) SetRecorder(rec *flightrec.Recorder) {
	if o == nil {
		return
	}
	o.SLO.SetRecorder(rec)
}

// ObserveQuery records one finished query in the log and the SLO engine.
func (o *Observer) ObserveQuery(ev Event) {
	if o == nil {
		return
	}
	o.Log.Record(ev)
	o.SLO.Observe(ev)
}

// Alerting reports whether the SLO burn-rate alert is latched (the bit
// /health flips on).
func (o *Observer) Alerting() bool {
	if o == nil {
		return false
	}
	return o.SLO.Alerting()
}

// queryInfoKey carries the session/query identity through a context.
type queryInfoKey struct{}

type queryInfo struct{ session, query string }

// WithQueryInfo attaches the SQL layer's session and query ids to ctx so
// the wide event emitted at completion can identify the caller.
func WithQueryInfo(ctx context.Context, session, query string) context.Context {
	return context.WithValue(ctx, queryInfoKey{}, queryInfo{session, query})
}

// QueryInfoFrom returns the identity attached by WithQueryInfo ("" when
// the query came from a direct library caller).
func QueryInfoFrom(ctx context.Context) (session, query string) {
	if ctx == nil {
		return "", ""
	}
	qi, _ := ctx.Value(queryInfoKey{}).(queryInfo)
	return qi.session, qi.query
}
