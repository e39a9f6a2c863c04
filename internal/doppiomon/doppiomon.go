// Package doppiomon is the live monitoring endpoint of a running doppioDB
// process: a small HTTP listener (opt-in via the CLIs' -mon flag) serving
//
//	/metrics      the telemetry registry in the Prometheus text exposition
//	              format (?format=json for the WriteJSON snapshot)
//	/health       engine-health JSON: AFU presence, per-engine circuit
//	              breaker state, and the aggregated health counters
//	/trace        the flight recorder's retained window (JSON events;
//	              ?format=perfetto for the Chrome-trace document,
//	              ?format=text for the dump format)
//	/calibration  the cost-model calibration auditor's rolling report:
//	              per-term prediction error statistics, drift alarms, and
//	              (?records=N) the most recent decision records
//	/querylog     the wide-event query log's retained window (?n=N most
//	              recent events; ?format=jsonl for JSON Lines export,
//	              ?format=text for the \querylog table)
//	/slo          the windowed SLO engine's report: per-class latency
//	              quantiles, availability SLIs, burn rates and the alert
//	              state (?format=text for the \slo rendering)
//	/utilization  the topdown fabric accounting: per-engine cycle buckets
//	              (busy, stalls, config, idle), the QPI link ledger, PU
//	              occupancy, the conservation check and the verdict tally
//	              (?format=text for the \topdown table)
//	/debug/pprof  the standard Go profiling handlers
//
// The server holds references, not copies: every request renders the state
// at request time, so a dashboard can watch a long doppiobench run live.
package doppiomon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"doppiodb/internal/explain"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/hal"
	"doppiodb/internal/obs"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/topdown"
)

// HealthSource is the live view /health renders. *hal.HAL satisfies it; nil
// reports a system that has not booted hardware.
type HealthSource interface {
	AFUPresent() bool
	Health() []hal.EngineHealth
	// State is the runtime's overload/recovery state machine verdict:
	// "ok", "overloaded", "degraded", or "resetting".
	State() string
}

// UtilizationSource is the live view /utilization renders: the cumulative
// topdown fabric report. *hal.HAL satisfies it.
type UtilizationSource interface {
	Topdown() topdown.FabricReport
}

// Config wires the server to one set of sinks — a core.System's, or the set
// a command shares among its Systems. Nil fields render as empty sections
// rather than failing; nothing is looked up behind the caller's back.
type Config struct {
	// Registry backs /metrics.
	Registry *telemetry.Registry
	// Recorder backs /trace.
	Recorder *flightrec.Recorder
	// Health backs /health's per-engine section.
	Health HealthSource
	// Calibration backs /calibration.
	Calibration *explain.Auditor
	// Obs backs /querylog and /slo, and its burn-rate alert flips /health.
	Obs *obs.Observer
	// Utilization backs /utilization's fabric section. Left nil, Start
	// derives it from Health when that source also serves topdown reports
	// (*hal.HAL does); nil at serve time renders an empty fabric.
	Utilization UtilizationSource
}

// Server is a running monitoring endpoint.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (host:port; port 0 picks a free one) and serves the
// monitoring endpoints until Close.
func Start(addr string, cfg Config) (*Server, error) {
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{} // nil log and SLO engine: both render empty
	}
	if cfg.Utilization == nil {
		if u, ok := cfg.Health.(UtilizationSource); ok {
			cfg.Utilization = u
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("doppiomon: listen %s: %w", addr, err)
	}
	s := &Server{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/calibration", s.handleCalibration)
	mux.HandleFunc("/querylog", s.handleQueryLog)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/utilization", s.handleUtilization)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleMetrics serves the registry: Prometheus text by default, the
// WriteJSON snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		s.cfg.Registry.WriteJSON(w) //nolint:errcheck // best-effort response write
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w)
	telemetry.WritePrometheusBuildInfo(w)
}

// healthDoc is /health's wire form.
type healthDoc struct {
	Status     string `json:"status"`          // "ok" or "degraded"
	State      string `json:"state,omitempty"` // runtime state machine: ok/overloaded/degraded/resetting
	AFUPresent bool   `json:"afu_present"`
	// SLOAlert mirrors the SLO engine's latched burn-rate alert; while it
	// is set the endpoint reports degraded (the error budget is burning
	// too fast for the instance to keep taking unshielded traffic).
	SLOAlert bool               `json:"slo_alert"`
	Engines  []engineHealthJSON `json:"engines,omitempty"`
	Counters hal.HealthCounters `json:"counters"`
	Recorder recorderStatusJSON `json:"recorder"`
}

type engineHealthJSON struct {
	Engine       int   `json:"engine"`
	Quarantined  bool  `json:"quarantined"`
	ConsecFails  int   `json:"consec_fails"`
	Jobs         int64 `json:"jobs"`
	Fails        int64 `json:"fails"`
	Readmissions int64 `json:"readmissions"`
}

type recorderStatusJSON struct {
	Events  int    `json:"events"`
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
	Dumps   uint64 `json:"dumps"`
}

// handleHealth serves the engine-health document. The HTTP status mirrors
// the verdict: 200 while every engine is admitted, 503 when quarantines, a
// lost handshake, or an in-flight fabric reset degrade the system. The
// "overloaded" state stays 200 — a saturated backlog is load, not damage —
// but is reported so load balancers can steer around the instance.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc := healthDoc{
		Status:   "ok",
		Counters: hal.SummaryFromMetrics(s.cfg.Registry.Snapshot()),
		Recorder: recorderStatusJSON{
			Events:  s.cfg.Recorder.Len(),
			Total:   s.cfg.Recorder.Total(),
			Dropped: s.cfg.Recorder.Dropped(),
			Dumps:   s.cfg.Recorder.Dumps(),
		},
	}
	if s.cfg.Health != nil {
		doc.AFUPresent = s.cfg.Health.AFUPresent()
		doc.State = s.cfg.Health.State()
		if doc.State == "degraded" || doc.State == "resetting" {
			doc.Status = "degraded"
		}
		for _, e := range s.cfg.Health.Health() {
			doc.Engines = append(doc.Engines, engineHealthJSON{
				Engine:       e.Engine,
				Quarantined:  e.Quarantined,
				ConsecFails:  e.ConsecFails,
				Jobs:         e.Jobs,
				Fails:        e.Fails,
				Readmissions: e.Readmissions,
			})
			if e.Quarantined {
				doc.Status = "degraded"
			}
		}
		if !doc.AFUPresent {
			doc.Status = "degraded"
		}
	}
	if s.cfg.Obs.Alerting() {
		doc.SLOAlert = true
		doc.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	if doc.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort response write
}

// handleCalibration serves the calibration auditor's rolling report as
// JSON (?format=text for the \health-style table). ?records=N appends the
// N most recent decision records to the JSON document.
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	aud := s.cfg.Calibration
	rep := aud.Stats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	doc := struct {
		explain.Report
		Records []*explain.Record `json:"records,omitempty"`
	}{Report: rep}
	if n, err := strconv.Atoi(r.URL.Query().Get("records")); err == nil && n > 0 {
		doc.Records = aud.Records(n)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort response write
}

// handleQueryLog serves the wide-event query log's retained window: a JSON
// document ({stats, events}) by default, JSON Lines with ?format=jsonl,
// the \querylog table with ?format=text. ?n=N limits to the N most recent
// events (default 100; n=0 returns the whole window).
func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	log := s.cfg.Obs.Log
	n := 100
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v >= 0 {
		n = v
	}
	switch r.URL.Query().Get("format") {
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		log.WriteJSONL(w, n) //nolint:errcheck // best-effort response write
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		log.WriteText(w, n)
	default:
		w.Header().Set("Content-Type", "application/json")
		doc := struct {
			Stats  obs.LogStats `json:"stats"`
			Events []obs.Event  `json:"events"`
		}{Stats: log.Stats(), Events: log.Window(n)}
		if doc.Events == nil {
			doc.Events = []obs.Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // best-effort response write
	}
}

// handleSLO serves the windowed SLO engine's report: JSON by default, the
// \slo rendering with ?format=text.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	rep := s.cfg.Obs.SLO.Report()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep) //nolint:errcheck // best-effort response write
}

// handleUtilization serves the topdown fabric accounting: the per-engine
// and link cycle ledgers as JSON — with the conservation verdict and the
// per-query bottleneck tally from telemetry — or the \topdown table with
// ?format=text. A system that never booted hardware renders an empty,
// trivially conserved fabric.
func (s *Server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	var rep topdown.FabricReport
	if s.cfg.Utilization != nil {
		rep = s.cfg.Utilization.Topdown()
	}
	snap := s.cfg.Registry.Snapshot()
	if bp := snap.Gauge("topdown.pu_occupancy_bp"); bp > 0 {
		rep.PUOccupancyPct = float64(bp) / 100
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	doc := struct {
		topdown.FabricReport
		Conserved bool             `json:"conserved"`
		Verdicts  map[string]int64 `json:"verdicts,omitempty"`
	}{
		FabricReport: rep,
		Conserved:    rep.Conserved(),
		Verdicts:     topdown.SummaryFromMetrics(snap).Verdicts,
	}
	if doc.Engines == nil {
		doc.Engines = []topdown.EngineReport{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort response write
}

// handleTrace serves the flight-recorder window: structured JSON events by
// default, the Chrome-trace document with ?format=perfetto, the dump text
// with ?format=text.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Recorder
	switch r.URL.Query().Get("format") {
	case "perfetto":
		w.Header().Set("Content-Type", "application/json")
		if err := flightrec.WriteChromeTrace(w, rec.Window()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rec.WriteText(w)
	default:
		w.Header().Set("Content-Type", "application/json")
		doc := struct {
			Events  []flightrec.Event `json:"events"`
			Dropped uint64            `json:"dropped"`
		}{Events: rec.Window(), Dropped: rec.Dropped()}
		if doc.Events == nil {
			doc.Events = []flightrec.Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(doc) //nolint:errcheck // best-effort response write
	}
}
