package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"doppiodb/internal/telemetry"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64 // how long the run measures
	traced   bool
	traceOut string // Chrome-trace file of the traced run; "" writes none
	sizes    sizes
	// setups is how often the run sets the workload up; setup_s is the
	// median, so one slow set-up does not decide it.
	setups int
}

// result is what one run of one workload prints: the contract's last line
// (correct, attempted, failed, metrics) and, before it, the run information.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	info      map[string]any
	spans     []*span
	stages    map[string]stageShare // traced run: replay stages per statement
}

// warmupOps run after each set-up so caches fill and lazy set-up finishes
// before timing starts.
const warmupOps = 2

// Shares of --seconds the traced invocation gives its untraced reference
// phase and its traced phase; kernel probes take the rest.
const (
	referenceShare = 0.35
	tracedShare    = 0.50
)

// runWorkload sets the workload up, measures it and returns its metrics.
func runWorkload(w workloadDef, cfg runConfig) (*result, error) {
	var in *instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(cfg.seed, cfg.sizes, w.clients); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		in.seqs = make([]int, w.clients)
		if in.stack != nil { // figure_regen's set-up already ran its reference pass
			if ws := in.window(0, w.clients, windowOpts{minOps: warmupOps}); ws.failed > 0 {
				return nil, fmt.Errorf("%s: warm-up op failed: %w", w.name, ws.firstErr)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer in.close()

	res := &result{Metrics: make(map[string]value), info: map[string]any{"inputs": in.info, "setup_s_samples": setupS}}
	window := time.Duration(cfg.seconds * float64(time.Second))
	// The live heap is read here, after a fixed amount of work, and not at
	// the window's end: figure_regen retains memory with every pass at HEAD,
	// so a faster build, which fits more passes in the window, would read as
	// heavier. Growth per op is the per-layer go.heap_growth_mb_per_op.
	heapStart := liveHeap()
	if !cfg.traced {
		ws := in.window(window, w.clients, windowOpts{})
		res.count(ws)
		e2e := map[string]float64{
			"ops_per_s":     float64(len(ws.opS)-ws.failed) / ws.wall.Seconds(),
			"op_p50_ms":     median(ws.opS) * toMS,
			"op_p90_ms":     percentile(ws.opS, 90) * toMS,
			"allocs_per_op": float64(ws.mallocs) / float64(len(ws.opS)),
			"heap_live_mb":  heapStart / 1e6,
			"setup_s":       median(setupS),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{e2e[d.Name], d.Unit}
		}
		res.info["ops"] = len(ws.opS)
		res.info["window_s"] = ws.wall.Seconds()
		return res, nil
	}

	// Traced invocation: an untraced reference phase for counts, simulated
	// times and the tracing-overhead base; the traced phase with the staged
	// replay; then the kernel probes.
	var before telemetry.Snapshot
	if in.stack != nil {
		before = in.stack.tel.Snapshot()
	}
	goroutines := runtime.NumGoroutine()
	ref := in.window(time.Duration(referenceShare*float64(window)), w.clients, windowOpts{collect: true})
	res.count(ref)
	layer := make(map[string]float64)
	in.referenceMetrics(layer, ref, before)
	layer["go.heap_growth_mb_per_op"] = (liveHeap() - heapStart) / 1e6 / float64(len(ref.opS))
	layer["go.goroutines_end"] = float64(runtime.NumGoroutine())

	tr := in.window(time.Duration(tracedShare*float64(window)), w.clients, windowOpts{collect: true, trace: true})
	res.count(tr)
	probeSpans, err := in.probe(layer, tr.start)
	if err != nil {
		return nil, fmt.Errorf("%s: kernel probe: %w", w.name, err)
	}
	res.spans = append(tr.spans, probeSpans...)
	self := selfTimes(res.spans)
	for _, d := range perLayer {
		if d.Span != "" {
			layer[d.Name] = median(self[d.Span]) * d.Scale
		}
	}
	stages := stageShares(tr.spans)
	layer["core.glue_ms"] = stages.glueMS
	layer["trace_overhead_frac"] = overhead(ref.collectors, tr.collectors)
	if in.stack != nil {
		layer["shmem.live_bytes_end"] = float64(in.stack.tel.Snapshot().Gauge("shmem.live_bytes"))
	}
	if f := in.figures; f != nil {
		layer["experiments.anchor_max_rel_err"] = f.anchorMaxRelErr
		layer["experiments.table1_regexp_rel_err"] = f.table1RegexpRelErr
		layer["experiments.fig13_speedup_rel_err"] = f.fig13SpeedupRelErr
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{layer[d.Name], d.Unit}
	}
	res.info["reference_ops"] = len(ref.opS)
	res.info["traced_ops"] = len(tr.opS)
	res.info["goroutines_start"] = goroutines
	res.stages = stages.byLabel
	res.info["replay_share_of_query"] = stages.byLabel
	// A failed op may leave a span open; the failure is already counted.
	if res.Failed == 0 {
		if err := checkNesting(res.spans); err != nil {
			return nil, fmt.Errorf("%s: trace: %w", w.name, err)
		}
	}
	if cfg.traceOut != "" {
		path := strings.ReplaceAll(cfg.traceOut, "<workload>", w.name)
		if err := writeChromeTrace(path, res.spans); err != nil {
			return nil, err
		}
		res.info["trace_file"] = path
	}
	return res, nil
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// count folds a window's ops into the result's attempted/failed totals.
func (r *result) count(ws windowStats) {
	r.Attempted += len(ws.opS)
	r.Failed += ws.failed
	r.Correct = r.Failed == 0
	if ws.firstErr != nil {
		if _, seen := r.info["first_error"]; !seen {
			r.info["first_error"] = ws.firstErr.Error()
		}
	}
}

type windowOpts struct {
	minOps  int  // each client runs at least this many ops (at least one)
	collect bool // gather per-statement wall and simulated times
	trace   bool // record spans and run the staged replay
}

// windowStats is what one closed-loop window measured.
type windowStats struct {
	start      time.Time
	opS        []float64 // wall seconds of every op, all clients
	failed     int
	firstErr   error
	wall       time.Duration // first op's start to the last op's end
	mallocs    uint64
	allocBytes uint64
	gcPauseMax time.Duration
	gcCPUFrac  float64
	collectors []*collector
	spans      []*span
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() (gc, total float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

// window runs the workload's closed loop for d: every client issues its next
// op only when its previous one has returned, and the window ends on an op
// boundary.
func (in *instance) window(d time.Duration, clients int, o windowOpts) windowStats {
	type clientOut struct {
		opS      []float64
		failed   int
		firstErr error
		col      *collector
		tr       *tracer
	}
	outs := make([]clientOut, clients)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, total0 := readGCCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			if o.collect {
				out.col = newCollector()
			}
			if o.trace {
				out.tr = newTracer(c, start)
			}
			ctx := context.Background()
			for n := 0; n < max(o.minOps, 1) || time.Now().Before(deadline); n++ {
				seq := in.seqs[c]
				in.seqs[c]++
				root := out.tr.root("op", int64(seq*clients+c))
				t0 := time.Now()
				err := in.op(ctx, c, seq, root, out.col)
				root.end()
				out.opS = append(out.opS, time.Since(t0).Seconds())
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	ws := windowStats{start: start, wall: time.Since(start)}
	runtime.ReadMemStats(&m1)
	gc1, total1 := readGCCPU()
	ws.mallocs = m1.Mallocs - m0.Mallocs
	ws.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if total1 > total0 {
		ws.gcCPUFrac = (gc1 - gc0) / (total1 - total0)
	}
	// PauseNs is a ring of the last 256 pauses.
	for n := m0.NumGC; n < m1.NumGC && n < m0.NumGC+256; n++ {
		if p := time.Duration(m1.PauseNs[n%256]); p > ws.gcPauseMax {
			ws.gcPauseMax = p
		}
	}
	for _, out := range outs {
		ws.opS = append(ws.opS, out.opS...)
		ws.failed += out.failed
		if ws.firstErr == nil {
			ws.firstErr = out.firstErr
		}
		if out.col != nil {
			ws.collectors = append(ws.collectors, out.col)
		}
		if out.tr != nil {
			ws.spans = append(ws.spans, out.tr.spans...)
		}
	}
	return ws
}

// referenceMetrics fills the per-layer metrics that come from the untraced
// reference phase: run information, registry count deltas per op, simulated
// times off the results, and the Go runtime's share.
func (in *instance) referenceMetrics(layer map[string]float64, ws windowStats, before telemetry.Snapshot) {
	ops := float64(len(ws.opS))
	layer["host_mb_per_s"] = float64(in.bytesPerOp) * (ops - float64(ws.failed)) / ws.wall.Seconds() / 1e6
	// A percentile is printed only with at least ten samples beyond it.
	if ops >= 1000 {
		layer["op_p99_ms"] = percentile(ws.opS, 99) * toMS
	}
	layer["go.gc_cpu_frac"] = ws.gcCPUFrac
	layer["go.gc_pause_max_us"] = ws.gcPauseMax.Seconds() * toUS
	layer["go.alloc_mb_per_op"] = float64(ws.allocBytes) / ops / 1e6
	if in.stack == nil {
		return
	}
	after := in.stack.tel.Snapshot()
	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	ratio := func(prefix string) float64 {
		hits, misses := delta(prefix+"_hits"), delta(prefix+"_misses")
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	layer["plan.cache_hit_ratio"] = ratio("plan.cache")
	layer["core.config_cache_hit_ratio"] = ratio("core.config_cache")
	layer["hal.jobs"] = delta("hal.jobs") / ops
	layer["hal.dispatch_groups"] = delta("hal.dispatch.groups") / ops
	layer["hal.retries"] = delta("hal.retries") / ops
	layer["pu.cycles"] = delta("pu.cycles") / ops
	layer["qpi.grants"] = delta("qpi.grants") / ops
	layer["qpi.bytes"] = delta("qpi.bytes") / ops
	layer["qpi.switch_events"] = delta("qpi.switch_events") / ops

	var freed, hwPS, configPS int64
	for _, c := range ws.collectors {
		freed += c.freedBytes
		hwPS += c.simHWPS
		configPS += c.simConfigPS
	}
	layer["shmem.unfreed_result_bytes_per_op"] = float64(freed) / ops
	layer["sim.hw_us_per_op"] = float64(hwPS) / ops / 1e6
	layer["sim.config_gen_ns_per_op"] = float64(configPS) / ops / 1e3
	for label, s := range ws.collectors[0].simTotalS {
		layer["sim.response_us."+label] = s * toUS
	}
}

// overhead is the traced phase's query wall time over the reference
// phase's, minus one: per label the median, summed over the labels both
// phases ran.
func overhead(ref, traced []*collector) float64 {
	merge := func(cs []*collector) map[string][]float64 {
		m := make(map[string][]float64)
		for _, c := range cs {
			for label, s := range c.queryS {
				m[label] = append(m[label], s...)
			}
		}
		return m
	}
	r, t := merge(ref), merge(traced)
	var rs, ts float64
	for label, s := range r {
		if len(t[label]) > 0 {
			rs += median(s)
			ts += median(t[label])
		}
	}
	if rs == 0 {
		return 0
	}
	return ts/rs - 1
}

// stageReport sets the replayed stages against the query they replay.
type stageReport struct {
	// glueMS is the median, over replayed statements, of the query span
	// minus the sum of its replay's stages: what Engine.Query spends outside
	// the layers the replay calls (plan build, span tree, explain, obs,
	// topdown and flight-recorder stamping; a hybrid query's software tail).
	glueMS  float64
	byLabel map[string]stageShare
}

// stageShare is one statement's replay set against its query span: medians
// over the traced phase.
type stageShare struct {
	QueryMS    float64            `json:"query_ms"`
	StagesMS   map[string]float64 `json:"stages_ms"`
	StageSumMS float64            `json:"stage_sum_ms"`
	Share      float64            `json:"share"` // stage sum / query
	Samples    int                `json:"samples"`
}

func stageShares(spans []*span) stageReport {
	type key struct {
		trace int64
		label string
	}
	queries := make(map[key]*span)
	byID := make(map[int64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if label, ok := strings.CutPrefix(s.Name, "query."); ok {
			queries[key{s.Trace, label}] = s
		}
	}
	stageSum := make(map[int64]float64)             // replay span -> Σ stage seconds
	stages := make(map[string]map[string][]float64) // label -> stage -> seconds
	for _, s := range spans {
		p := byID[s.Parent]
		if p == nil {
			continue
		}
		label, ok := strings.CutPrefix(p.Name, "replay.")
		if !ok {
			continue
		}
		stageSum[p.ID] += s.dur().Seconds()
		if stages[label] == nil {
			stages[label] = make(map[string][]float64)
		}
		stages[label][s.Name] = append(stages[label][s.Name], s.dur().Seconds())
	}
	var glue []float64
	queryS := make(map[string][]float64)
	sumS := make(map[string][]float64)
	for _, s := range spans {
		label, ok := strings.CutPrefix(s.Name, "replay.")
		if !ok {
			continue
		}
		q := queries[key{s.Trace, label}]
		if q == nil {
			continue
		}
		queryS[label] = append(queryS[label], q.dur().Seconds())
		sumS[label] = append(sumS[label], stageSum[s.ID])
		if strings.HasPrefix(label, "q") { // the offload path; software statements have no core glue
			glue = append(glue, q.dur().Seconds()-stageSum[s.ID])
		}
	}
	rep := stageReport{glueMS: median(glue) * toMS, byLabel: make(map[string]stageShare)}
	for label, qs := range queryS {
		stageMS := make(map[string]float64)
		for name, s := range stages[label] {
			stageMS[name] = median(s) * toMS
		}
		q, sum := median(qs), median(sumS[label])
		rep.byLabel[label] = stageShare{
			QueryMS:    q * toMS,
			StagesMS:   stageMS,
			StageSumMS: sum * toMS,
			Share:      sum / q,
			Samples:    len(qs),
		}
	}
	return rep
}
