package doppiomon

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"doppiodb/internal/core"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/obs"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// bootMon starts a monitoring server over a freshly booted System that has
// run one query, so every endpoint has real state to render. The system
// and server share a private observer so the query-log and SLO assertions
// see exactly this test's traffic.
func bootMon(t *testing.T) (*Server, *telemetry.Registry, *flightrec.Recorder) {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := flightrec.New(1024)
	ob := obs.New(obs.Options{Log: obs.LogOptions{SampleEvery: 1}})
	sys, err := core.NewSystem(core.Options{
		RegionBytes: 64 << 20,
		Telemetry:   reg,
		Recorder:    rec,
		Obs:         ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := workload.NewGenerator(7, 64).Table(2000, workload.HitQ1, 0.1)
	tbl, err := sys.DB.LoadAddressTable("t", rows)
	if err != nil {
		t.Fatal(err)
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{}); err != nil {
		t.Fatal(err)
	}
	srv, err := Start("127.0.0.1:0", Config{Registry: reg, Recorder: rec, Health: sys.HAL, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, reg, rec
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// parsePrometheus reads the exposition text into name→value samples,
// failing on any malformed line — the "parseable Prometheus" check.
func parsePrometheus(t *testing.T, text []byte) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q in %q", fields[3], line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		// Counters and raw gauges are integers; derived *_pct gauges
		// render basis points with two decimals (still valid Prometheus).
		f, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		v := int64(f)
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			name = name[:i]
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("invalid metric name char %q in %q", c, line)
			}
		}
		out[name] += 0 // presence even when value collides below
		out[name] = v
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	srv, reg, _ := bootMon(t)
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	samples := parsePrometheus(t, body)

	// Counter values match a registry snapshot taken now (the system is
	// idle, so the values are stable).
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("no counters in registry after a query")
	}
	for name, want := range snap.Counters {
		got, ok := samples[strings.NewReplacer(".", "_", "-", "_").Replace(name)]
		if !ok {
			t.Fatalf("counter %s missing from /metrics", name)
		}
		if got != want {
			t.Fatalf("counter %s = %d on /metrics, registry has %d", name, got, want)
		}
	}
	if samples["core_queries"] != 1 {
		t.Fatalf("core_queries = %d, want 1", samples["core_queries"])
	}
	if samples["hal_engines_total"] == 0 {
		t.Fatal("hal_engines_total missing or zero")
	}

	// JSON variant parses back into the identical snapshot.
	_, jbody := get(t, "http://"+srv.Addr()+"/metrics?format=json")
	var parsed telemetry.Snapshot
	if err := json.Unmarshal(jbody, &parsed); err != nil {
		t.Fatalf("/metrics?format=json did not parse: %v", err)
	}
	if parsed.Counter("core.queries") != 1 {
		t.Fatalf("json snapshot core.queries = %d", parsed.Counter("core.queries"))
	}
}

func TestHealthEndpoint(t *testing.T) {
	srv, _, _ := bootMon(t)
	code, body := get(t, "http://"+srv.Addr()+"/health")
	if code != http.StatusOK {
		t.Fatalf("/health status = %d: %s", code, body)
	}
	var doc struct {
		Status     string `json:"status"`
		State      string `json:"state"`
		AFUPresent bool   `json:"afu_present"`
		Engines    []struct {
			Engine      int   `json:"engine"`
			Quarantined bool  `json:"quarantined"`
			Jobs        int64 `json:"jobs"`
		} `json:"engines"`
		Counters struct {
			EnginesTotal   int64 `json:"engines_total"`
			EnginesHealthy int64 `json:"engines_healthy"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/health is not JSON: %v\n%s", err, body)
	}
	if doc.Status != "ok" || !doc.AFUPresent {
		t.Fatalf("healthy system reported %+v", doc)
	}
	if doc.State != "ok" {
		t.Fatalf("idle healthy system state = %q, want ok", doc.State)
	}
	if len(doc.Engines) == 0 {
		t.Fatal("no engines in /health")
	}
	if doc.Counters.EnginesTotal != int64(len(doc.Engines)) {
		t.Fatalf("counters.engines_total = %d for %d engines", doc.Counters.EnginesTotal, len(doc.Engines))
	}
	var jobs int64
	for _, e := range doc.Engines {
		jobs += e.Jobs
	}
	if jobs == 0 {
		t.Fatal("no completed jobs visible in /health after a query")
	}
}

func TestTraceEndpoint(t *testing.T) {
	srv, _, rec := bootMon(t)
	if rec.Len() == 0 {
		t.Fatal("flight recorder empty after a query")
	}
	code, body := get(t, "http://"+srv.Addr()+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var doc struct {
		Events []struct {
			Type string   `json:"type"`
			Sim  sim.Time `json:"sim_ps"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	if len(doc.Events) != rec.Len() {
		t.Fatalf("/trace has %d events, recorder %d", len(doc.Events), rec.Len())
	}
	kinds := map[string]bool{}
	for _, e := range doc.Events {
		kinds[e.Type] = true
	}
	for _, want := range []string{"job-submit", "job-exec", "pu-busy", "grant-burst"} {
		if !kinds[want] {
			t.Fatalf("/trace missing %s events; has %v", want, kinds)
		}
	}

	// Perfetto variant is valid Chrome-trace JSON.
	_, pbody := get(t, "http://"+srv.Addr()+"/trace?format=perfetto")
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(pbody, &trace); err != nil {
		t.Fatalf("/trace?format=perfetto is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("perfetto trace empty")
	}

	// Text variant mentions the retained count.
	_, tbody := get(t, "http://"+srv.Addr()+"/trace?format=text")
	if !strings.Contains(string(tbody), fmt.Sprintf("%d event(s) retained", rec.Len())) {
		t.Fatalf("/trace?format=text header missing:\n%.200s", tbody)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv, _, _ := bootMon(t)
	code, body := get(t, "http://"+srv.Addr()+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline status = %d, %d bytes", code, len(body))
	}
}

func TestQueryLogEndpoint(t *testing.T) {
	srv, _, _ := bootMon(t)
	code, body := get(t, "http://"+srv.Addr()+"/querylog")
	if code != http.StatusOK {
		t.Fatalf("/querylog status = %d", code)
	}
	var doc struct {
		Stats struct {
			Submitted uint64 `json:"submitted"`
			Kept      uint64 `json:"kept"`
		} `json:"stats"`
		Events []struct {
			Seq     uint64 `json:"seq"`
			Outcome string `json:"outcome"`
			Rows    int    `json:"rows"`
			TotalNS int64  `json:"total_ns"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/querylog is not JSON: %v\n%s", err, body)
	}
	if doc.Stats.Submitted != 1 || doc.Stats.Kept != 1 {
		t.Fatalf("stats after one query: %+v", doc.Stats)
	}
	if len(doc.Events) != 1 || doc.Events[0].Outcome != "completed" ||
		doc.Events[0].Rows != 2000 || doc.Events[0].TotalNS <= 0 {
		t.Fatalf("events: %+v", doc.Events)
	}

	// JSONL variant: one parseable JSON object per line.
	_, lbody := get(t, "http://"+srv.Addr()+"/querylog?format=jsonl")
	lines := strings.Split(strings.TrimSpace(string(lbody)), "\n")
	if len(lines) != 1 {
		t.Fatalf("jsonl lines: got %d, want 1", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("jsonl line not JSON: %v", err)
	}

	// ?n bounds the window.
	_, nb := get(t, "http://"+srv.Addr()+"/querylog?n=0")
	if err := json.Unmarshal(nb, &doc); err != nil || len(doc.Events) != 1 {
		t.Fatalf("?n=0 (whole window): %v, %d events", err, len(doc.Events))
	}

	// Text variant carries the table header.
	_, tb := get(t, "http://"+srv.Addr()+"/querylog?format=text")
	if !strings.Contains(string(tb), "placement") {
		t.Fatalf("/querylog?format=text missing header:\n%.200s", tb)
	}
}

func TestSLOEndpoint(t *testing.T) {
	srv, _, _ := bootMon(t)
	code, body := get(t, "http://"+srv.Addr()+"/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo status = %d", code)
	}
	var doc struct {
		Targets struct {
			AvailabilityPct float64 `json:"availability_pct"`
			LatencyP99NS    int64   `json:"latency_p99_ns"`
		} `json:"targets"`
		Submitted   int64 `json:"submitted"`
		Errors      int64 `json:"errors"`
		AlertActive bool  `json:"alert_active"`
		Classes     []struct {
			Class string `json:"class"`
			Count int64  `json:"count"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/slo is not JSON: %v\n%s", err, body)
	}
	if doc.Targets.AvailabilityPct < 99 || doc.Targets.LatencyP99NS <= 0 {
		t.Fatalf("targets: %+v", doc.Targets)
	}
	if doc.Submitted != 1 || doc.Errors != 0 || doc.AlertActive {
		t.Fatalf("clean single-query SLIs: %+v", doc)
	}
	if len(doc.Classes) != 1 || doc.Classes[0].Count != 1 {
		t.Fatalf("classes: %+v", doc.Classes)
	}

	_, tb := get(t, "http://"+srv.Addr()+"/slo?format=text")
	if !strings.Contains(string(tb), "SLO targets") {
		t.Fatalf("/slo?format=text missing header:\n%.200s", tb)
	}

	// The clean system's /health must not carry the SLO alert flag.
	hcode, hbody := get(t, "http://"+srv.Addr()+"/health")
	if hcode != http.StatusOK || strings.Contains(string(hbody), `"slo_alert": true`) {
		t.Fatalf("/health carries an SLO alert on a clean run: %d\n%s", hcode, hbody)
	}
}

// The SLO burn-rate alert must flip /health to degraded/503.
func TestHealthFlipsOnSLOAlert(t *testing.T) {
	ob := obs.New(obs.Options{})
	srv, err := Start("127.0.0.1:0", Config{Registry: telemetry.NewRegistry(),
		Recorder: flightrec.New(16), Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for i := 0; i < 16; i++ {
		ob.ObserveQuery(obs.Event{SimNS: int64(i * 1000), Outcome: obs.OutcomeShed, Cause: "overload"})
	}
	if !ob.Alerting() {
		t.Fatal("observer not alerting after 16 consecutive sheds")
	}
	code, body := get(t, "http://"+srv.Addr()+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health status = %d under a latched burn alert, want 503", code)
	}
	var doc struct {
		Status   string `json:"status"`
		SLOAlert bool   `json:"slo_alert"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "degraded" || !doc.SLOAlert {
		t.Fatalf("health doc under alert: %+v", doc)
	}
}

// Every endpoint must declare its Content-Type, JSON documents as
// application/json — the consistency contract dashboards rely on. A server
// started from the zero Config has no sinks at all: every pair must still
// answer 200 with the same Content-Type, rendering its section empty.
func TestEndpointsSetContentType(t *testing.T) {
	live, _, _ := bootMon(t)
	bare, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Close() })
	cases := []struct {
		path  string
		want  string
		empty string // what the bare server's body carries in place of content
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "doppio_build_info"},
		{"/metrics?format=json", "application/json", `"counters": {}`},
		{"/health", "application/json", `"events": 0`},
		{"/trace", "application/json", `"events": []`},
		{"/trace?format=perfetto", "application/json", `"traceEvents"`},
		{"/trace?format=text", "text/plain; charset=utf-8", "flightrec: empty window"},
		{"/calibration", "application/json", `"observed": 0`},
		{"/calibration?format=text", "text/plain; charset=utf-8", "0 record(s)"},
		{"/querylog", "application/json", `"events": []`},
		{"/querylog?format=jsonl", "application/x-ndjson", ""},
		{"/querylog?format=text", "text/plain; charset=utf-8", "query log: no events retained"},
		{"/slo", "application/json", `"submitted": 0`},
		{"/slo?format=text", "text/plain; charset=utf-8", "submitted 0, errors 0"},
		{"/utilization", "application/json", `"engines": []`},
		{"/utilization?format=text", "text/plain; charset=utf-8", "0 rounds"},
	}
	for _, tc := range cases {
		for _, srv := range []*Server{live, bare} {
			resp, err := http.Get("http://" + srv.Addr() + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			got := resp.Header.Get("Content-Type")
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if got != tc.want {
				t.Errorf("%s Content-Type = %q, want %q", tc.path, got, tc.want)
			}
			if srv != bare {
				continue
			}
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.empty) ||
				(tc.empty == "" && len(body) != 0) {
				t.Errorf("%s on a zero Config: status %d, body %.300q; want 200 carrying %q",
					tc.path, resp.StatusCode, body, tc.empty)
			}
		}
	}
}

func TestUtilizationEndpoint(t *testing.T) {
	srv, _, _ := bootMon(t)
	code, body := get(t, "http://"+srv.Addr()+"/utilization")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var doc struct {
		Engines []struct {
			Engine int   `json:"engine"`
			BusyPS int64 `json:"busy_ps"`
			WallPS int64 `json:"wall_ps"`
		} `json:"engines"`
		Link struct {
			BusyPS int64 `json:"busy_ps"`
			WallPS int64 `json:"wall_ps"`
		} `json:"link"`
		Rounds    int64            `json:"rounds"`
		Conserved bool             `json:"conserved"`
		Verdicts  map[string]int64 `json:"verdicts"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(doc.Engines) == 0 || doc.Rounds == 0 {
		t.Fatalf("no fabric accounting rendered: %s", body)
	}
	if !doc.Conserved {
		t.Errorf("conservation violated: %s", body)
	}
	if doc.Link.WallPS == 0 || doc.Link.BusyPS == 0 {
		t.Errorf("link ledger empty: %+v", doc.Link)
	}
	if len(doc.Verdicts) == 0 {
		t.Error("no verdicts tallied after a query")
	}

	code, text := get(t, "http://"+srv.Addr()+"/utilization?format=text")
	if code != http.StatusOK {
		t.Fatalf("text status = %d", code)
	}
	if !strings.Contains(string(text), "cycle conservation: exact") {
		t.Errorf("text form missing conservation line:\n%s", text)
	}
	if !strings.Contains(string(text), "qpi") {
		t.Errorf("text form missing link line:\n%s", text)
	}
}

// Without a utilization source the endpoint stays clean: empty engines,
// trivially conserved, valid JSON.
func TestUtilizationEndpointNilSource(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	code, body := get(t, "http://"+srv.Addr()+"/utilization")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var doc struct {
		Engines   []any `json:"engines"`
		Conserved bool  `json:"conserved"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(doc.Engines) != 0 || !doc.Conserved {
		t.Errorf("empty fabric rendered wrong: %s", body)
	}
}
