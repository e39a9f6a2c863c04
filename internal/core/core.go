// Package core is the paper's primary contribution assembled into a usable
// system: doppioDB — MonetDB extended with a Hardware User Defined Function
// (HUDF) that offloads LIKE and REGEXP_LIKE predicates to the runtime-
// parameterizable regex engines on the FPGA of a hybrid CPU-FPGA machine.
//
// A System bundles the simulated platform (shared memory region, programmed
// FPGA device, HAL) with the column store and registers the REGEXP_FPGA UDF
// exactly as §4 describes: the UDF converts the pattern into a
// configuration vector, allocates the result BAT in shared memory, creates
// FPGA jobs through the HAL, busy-waits on the done bit, and hands the
// result BAT back to the engine. Patterns that exceed the deployed
// circuit's capacity transparently use hybrid execution (§7.8): the prefix
// that fits runs on the FPGA as a pre-filter and the remainder is
// post-processed in software on the matching tuples only.
package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"sync"

	"doppiodb/internal/bat"
	"doppiodb/internal/engine"
	"doppiodb/internal/explain"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/fpga"
	"doppiodb/internal/hal"
	"doppiodb/internal/mdb"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/obs"
	"doppiodb/internal/perf"
	"doppiodb/internal/plan"
	"doppiodb/internal/shmem"
	"doppiodb/internal/sim"
	"doppiodb/internal/strmatch"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/topdown"
)

// UDFName is the SQL-visible name of the hardware operator
// (REGEXP_FPGA(pattern, column) <> 0 in queries).
const UDFName = "regexp_fpga"

// Breakdown phase names (Figure 10).
const (
	PhaseDatabase  = "Database"
	PhaseUDF       = "UDF (software part)"
	PhaseConfigGen = "Config. Gen."
	PhaseHAL       = "HAL"
	PhaseQueue     = "Queue wait"
	PhaseHardware  = "Hardware Processing"
	PhaseSoftware  = "Hybrid post-processing"
	// PhaseRetry is the simulated backoff accrued by query-level retries of
	// transiently failed hardware attempts. Absent from clean runs, so their
	// breakdowns stay bit-identical to the pre-retry runtime.
	PhaseRetry = "Retry backoff"
)

// Options configure a System. The four sinks (Telemetry, Recorder, Auditor,
// Obs) are owned by the System: left nil, NewSystem creates a fresh private
// instance, so two Systems share observability state only when the caller
// hands both the same instance.
type Options struct {
	// Deployment overrides the default 4×16 device.
	Deployment *fpga.Deployment
	// RegionBytes sizes the shared region (default 4 GB; tests use
	// less).
	RegionBytes uint64
	// Model overrides the calibrated perf model.
	Model *perf.Model
	// Telemetry receives every layer's metrics. Nil: a fresh registry.
	Telemetry *telemetry.Registry
	// Faults injects hardware faults into the HAL. Nil keeps what the
	// DOPPIO_FAULTS environment variable describes (faults.Default); pass
	// faults.New(faults.Options{}) for an explicitly quiet injector.
	Faults *faults.Injector
	// Recorder is the flight recorder the HAL and the degrade path report
	// into. Nil: a fresh recorder of flightrec.DefaultCapacity.
	Recorder *flightrec.Recorder
	// Auditor receives every finished decision record for cost-model
	// calibration. Nil: a fresh auditor with default options.
	Auditor *explain.Auditor
	// Retry overrides the per-query hardware retry budget (nil selects
	// DefaultRetryPolicy; &RetryPolicy{} disables query-level retry).
	Retry *RetryPolicy
	// Obs receives the wide query event every Exec emits at completion
	// (query log + SLO engine). Nil: a fresh observer with default options.
	Obs *obs.Observer
	// SharedScans enables the multi-query shared-scan coalescer:
	// concurrent queries over the same BAT with the same pattern merge
	// into one HAL job group whose result fans back out per query. Off by
	// default — coalescing intentionally changes measured throughput, so
	// the benchmark figures opt in explicitly.
	SharedScans bool
}

// System is a running doppioDB instance on the simulated Xeon+FPGA machine.
type System struct {
	Region *shmem.Region
	Device *fpga.Device
	HAL    *hal.HAL
	DB     *mdb.DB
	Model  perf.Model
	// Tel is the registry every layer of this system reports into.
	Tel *telemetry.Registry
	// Rec is the always-on flight recorder the HAL also records into.
	Rec *flightrec.Recorder
	// Audit is the calibration auditor every decision record feeds.
	Audit *explain.Auditor
	// Retry is the per-query hardware retry budget Exec applies to
	// transient faults before degrading to software.
	Retry RetryPolicy
	// Obs is the wide-event query log and SLO engine every query feeds.
	Obs *obs.Observer
	// Configs caches prepared patterns (program, capacity verdict, config
	// vector, hybrid split, probe steps) so repeat patterns skip everything
	// that is a fact about the pattern rather than about the query.
	Configs *plan.Cache
	// SharedScans turns on the shared-scan coalescer (see Options).
	SharedScans bool

	// probeMu guards probeInputs, the cost probe's synthesized rows by
	// average string length (see probeInput).
	probeMu     sync.Mutex
	probeInputs map[int][]string

	// scanMu guards inflight, the shared-scan coalescer's leader table.
	scanMu   sync.Mutex
	inflight map[scanKey]*scanShare
}

// NewSystem boots the platform: programs the FPGA, maps the shared region,
// starts the HAL, creates the database, and registers the HUDF.
func NewSystem(opts Options) (*System, error) {
	dep := fpga.DefaultDeployment()
	if opts.Deployment != nil {
		dep = *opts.Deployment
	}
	dev, err := fpga.NewDevice(dep)
	if err != nil {
		return nil, err
	}
	region := shmem.NewRegion(opts.RegionBytes)
	h, err := hal.New(region, dev)
	if err != nil {
		return nil, err
	}
	model := perf.Default()
	if opts.Model != nil {
		model = *opts.Model
	}
	tel, rec, aud, ob := opts.Telemetry, opts.Recorder, opts.Auditor, opts.Obs
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	if rec == nil {
		rec = flightrec.New(0)
	}
	if aud == nil {
		aud = explain.NewAuditor(explain.Options{})
	}
	if ob == nil {
		ob = obs.New(obs.Options{})
	}
	// Bind every layer to the System's sinks: allocator gauges, HAL/engine
	// counters and events, the column store's operator metrics, and the
	// auditor's and observer's own gauges and alarms.
	region.AttachTelemetry(tel)
	h.SetTelemetry(tel)
	h.SetRecorder(rec)
	if opts.Faults != nil {
		h.SetInjector(opts.Faults)
	}
	aud.SetTelemetry(tel)
	aud.SetRecorder(rec)
	ob.SetTelemetry(tel)
	ob.SetRecorder(rec)
	s := &System{
		Region:      region,
		Device:      dev,
		HAL:         h,
		DB:          mdb.New(region),
		Model:       model,
		Tel:         tel,
		Rec:         rec,
		Audit:       aud,
		Retry:       DefaultRetryPolicy(),
		Obs:         ob,
		Configs:     plan.NewCache(128, tel, "core.config_cache"),
		SharedScans: opts.SharedScans,
		inflight:    make(map[scanKey]*scanShare),
	}
	if opts.Retry != nil {
		s.Retry = *opts.Retry
	}
	s.DB.Tel = tel
	// The HUDF is used together with sequential_pipe (§7.1): the
	// dataflow parallelism of the default pipeline only adds overhead
	// around the offloaded operator.
	s.DB.Mode = mdb.SequentialPipe
	s.DB.RegisterUDF(UDFName, func(ctx context.Context, col *bat.Strings, pattern string) (*mdb.UDFResult, error) {
		return s.RegexpFPGA(ctx, col, pattern)
	})
	return s, nil
}

// Close shuts the system's device runtime down: backlogged jobs are
// canceled and the event-loop goroutine exits. Queries after Close fail
// with hal.ErrClosed.
func (s *System) Close() { s.HAL.Close() }

// Result is the HUDF's outcome with full accounting.
type Result struct {
	// Matches is the result BAT: per input row, 0 for no match or the
	// 1-based position of the match's last character.
	Matches *bat.Shorts
	// MatchCount is the number of matching rows.
	MatchCount int
	// Hybrid reports that hybrid execution was used and which parts ran
	// where.
	Hybrid         bool
	HWPart, SWPart string
	// Degraded reports that the FPGA path failed with a hardware fault
	// and the result was computed by the software fallback instead;
	// DegradedCause names the fault.
	Degraded      bool
	DegradedCause string
	// HW is the query's own hardware accounting, summed from the per-job
	// completion records of the device runtime — never another query's
	// traffic, even when rounds are shared.
	HW HWStats
	// Work is the software work performed (hybrid post-processing).
	Work perf.Work
	// Times per phase (simulated).
	Breakdown *sim.Counter
	// Trace is the query-lifecycle span tree: config-gen → job submit →
	// QPI transfer → engine dispatch → PU match → collect, plus the hybrid
	// post-processing stage when used.
	Trace *telemetry.Span
	// Decision is the placement decision record (EXPLAIN's view) with the
	// actual figures filled in — candidate plans, predicted cost terms,
	// per-term prediction error. Nil when the estimate itself failed.
	Decision *explain.Record
	// ConfigCached reports that the compiled config vector came from the
	// config cache: the query charged zero simulated config-gen time.
	ConfigCached bool
	// Shared marks a follower of a coalesced shared scan: the result BAT
	// was fanned out from another query's job group, and this result
	// carries no hardware traffic of its own.
	Shared bool
	// Topdown is the bottleneck attribution: the query's phase breakdown
	// and engine-cycle buckets folded into a verdict (memory-bound,
	// compute-bound, config-bound, queue-bound, software-bound).
	Topdown *topdown.Attribution
}

// Total returns the simulated response time.
func (r *Result) Total() sim.Time { return r.Breakdown.Total() }

// HWStats is a query's per-job hardware accounting (zero when the query
// never reached the device).
type HWStats struct {
	// JobLedger is the query's job completions summed: the QPI traffic
	// (Bytes, Grants, Switches, LinkBusy) of this query's jobs alone, their
	// engine-cycle Buckets — busy, stall-input, stall-switch, stall-output
	// and config (parametrization); jobs own no idle, so Wall is their sum
	// — and the [Start, Done] window covering them on the device timeline.
	memmodel.JobLedger
	// Time is the slowest partition's admission→completion span.
	Time sim.Time
	// QueueWait is the time the query's jobs waited in the runtime's
	// backlog before their round started.
	QueueWait sim.Time
	// Jobs is the engine set the query ran on: how many partitions the
	// runtime dispatched.
	Jobs int
}

// hybridRowDispatch is the per-tuple cost of handing a pre-selected row to
// the post-processor (result-BAT probe + string fetch).
const hybridRowDispatch = 150 * sim.Nanosecond

// ErrCannotSplit reports a pattern that neither fits the device nor has a
// top-level `.*` to split at.
var ErrCannotSplit = errors.New("core: expression exceeds device capacity and has no split point; use the software operator")

// RegexpFPGA is the HUDF: it evaluates the regular expression over the
// whole column on the FPGA, following steps 2-9 of Figure 3.
func (s *System) RegexpFPGA(ctx context.Context, col *bat.Strings, pattern string) (*mdb.UDFResult, error) {
	res, err := s.Exec(ctx, col, pattern, token.Options{})
	if err != nil {
		return nil, err
	}
	bd := make(map[string]float64)
	for _, ph := range res.Breakdown.Phases() {
		bd[ph] = res.Breakdown.Get(ph).Seconds()
	}
	return &mdb.UDFResult{
		Result:    res.Matches,
		Matches:   res.MatchCount,
		Work:      res.Work,
		HWSeconds: res.Breakdown.Get(PhaseHardware).Seconds(),
		Breakdown: bd,
		Trace:     res.Trace,
		Degraded:  res.Degraded,
		Decision:  res.Decision,
	}, nil
}

// Exec runs the hardware operator with explicit compile options (the ILIKE
// path passes FoldCase; collation costs nothing on the FPGA, §6.4).
// Cancelling ctx aborts the query: jobs still in the runtime's backlog are
// released (their status blocks freed); a round already granted completes
// on the device but the call returns the context's error.
func (s *System) Exec(ctx context.Context, col *bat.Strings, pattern string, opts token.Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	root := telemetry.StartSpan("regexp_fpga")
	root.SetAttr("rows", int64(col.Count()))
	s.Tel.Counter("core.queries").Inc()

	// The one counted config-cache lookup: everything below — the decision
	// record, the placement, the hybrid split and its tail matcher — reads
	// the prepared pattern it returns.
	pp, cached, err := s.prepare(pattern, opts)
	if err != nil {
		return nil, err
	}
	// The decision record rides the context down from the SQL layer (which
	// already priced the candidates); a direct Exec call builds its own.
	rec := explain.FromContext(ctx)
	if rec == nil {
		rec = s.recordForExec(col, pp)
	}
	placement := "fpga"
	if !pp.fits {
		placement = "hybrid"
	}
	if rec != nil && !rec.Offloads() {
		// The operator was invoked although the cost model preferred
		// software (explicit REGEXP_FPGA, or a caller overriding the
		// advisor): the record must describe the plan that actually runs.
		rec.ForceHardware("hardware operator invoked explicitly; cost model preferred software")
	}
	var res *Result
	var retries int
	var backoff sim.Time
	// Label the serving goroutine so /debug/pprof profiles attribute
	// samples per placement (the SQL layer adds session and query ids).
	pprof.Do(ctx, pprof.Labels("doppio.placement", placement), func(ctx context.Context) {
		if !pp.fits {
			// The span stays in the trace for shape stability; the split
			// itself was made when the pattern was prepared.
			root.StartChild("plan-split").End()
			if pp.splitErr != nil {
				err = pp.splitErr
				return
			}
			s.Tel.Counter("core.hybrid_queries").Inc()
		}
		attempt := func() (*Result, error) {
			if pp.fits {
				return s.execDirect(ctx, col, pp, cached, root)
			}
			return s.execHybrid(ctx, col, pp, root)
		}
		run := func() (*Result, error) {
			r, rErr := attempt()
			// Query-level retry: a hardware fault (watchdog timeout, handshake
			// loss, engine drop, quarantine) may heal between attempts —
			// readmission probes run, wedged engines recover — so re-run the
			// hardware attempt under the per-query budget, charging the
			// exponential backoff (plus deterministic seeded jitter) as simulated
			// PhaseRetry time. Admission errors (ErrOverload,
			// ErrDeadlineExceeded) are not faults and skip straight past this
			// loop.
			for rErr != nil && hal.IsFault(rErr) &&
				retries < s.Retry.MaxRetries && ctx.Err() == nil {
				d := s.Retry.Delay(retries, pattern)
				retries++
				backoff += d
				s.Tel.Counter("core.retry.attempts").Inc()
				s.Rec.Record(flightrec.Event{
					Type:   flightrec.EvRetry,
					Sim:    s.HAL.SimEpoch(),
					Engine: -1,
					Unit:   -1,
					Arg:    int64(d / sim.Nanosecond),
					Note:   rErr.Error(),
				})
				r, rErr = attempt()
			}
			if retries > 0 && rErr == nil {
				s.Tel.Counter("core.retry.recovered").Inc()
			}
			if rErr != nil && hal.IsFault(rErr) {
				// The hardware path is wedged beyond the HAL's and the query's
				// retries (the partially submitted jobs were already discarded):
				// degrade to the software operator. The flight recorder marks the
				// degradation and dumps its window — the black-box forensics of
				// what the hardware did leading up to it.
				s.Tel.Counter("core.fallback.software").Inc()
				s.Rec.Record(flightrec.Event{
					Type:   flightrec.EvDegrade,
					Sim:    s.HAL.SimEpoch(),
					Engine: -1,
					Unit:   -1,
					Note:   rErr.Error(),
				})
				s.Rec.DumpOnDegrade(rErr.Error())
				r, rErr = s.execSoftware(ctx, col, pp, root, rErr)
			}
			return r, rErr
		}
		if s.SharedScans {
			res, err = s.sharedExec(ctx, scanKey{col: col, pattern: pattern, fold: opts.FoldCase}, root, run)
		} else {
			res, err = run()
		}
	})
	if err != nil {
		s.observeQuery(ctx, col, pattern, placement, nil, err, retries, backoff)
		return nil, err
	}
	if backoff > 0 {
		res.Breakdown.Add(PhaseRetry, backoff)
	}
	if rec != nil {
		rec.Retries = retries
		rec.RetryBackoffNS = int64(backoff / sim.Nanosecond)
		rec.ConfigCached = res.ConfigCached
		rec.SharedScan = res.Shared
	}
	root.End()
	root.AddSim(res.Total())
	root.SetAttr("matches", int64(res.MatchCount))
	res.Trace = root
	s.Tel.Counter("core.matches").Add(int64(res.MatchCount))
	s.Tel.Counter("core.actual_ns").Add(int64(res.Total() / sim.Nanosecond))
	finishRecord(rec, res)
	res.Topdown = s.attributeQuery(placement, res)
	if rec != nil {
		rec.Topdown = res.Topdown
	}
	res.Decision = rec
	s.observeQuery(ctx, col, pattern, placement, res, nil, retries, backoff)
	return res, nil
}

// execDirect runs a fully offloaded query, partitioned across all engines
// (the FPGA parallelizes a single query by horizontally partitioning the
// input, §7.5): submit the partitions, dispatch them to the device runtime
// as one group, and await the per-job completion records.
func (s *System) execDirect(ctx context.Context, col *bat.Strings, pp *prepared, cached bool, parent *telemetry.Span) (res *Result, err error) {
	var bd sim.Counter
	bd.Add(PhaseDatabase, s.Model.DatabaseOverhead)
	parent.NewChild("bat-scan").AddSim(s.Model.DatabaseOverhead)
	bd.Add(PhaseUDF, s.Model.UDFOverhead)
	parent.NewChild("hudf-software").AddSim(s.Model.UDFOverhead)

	// Step 3: convert the expression into a configuration vector —
	// preparePattern encoded it for every program that fits, and only those
	// reach here. A config cache hit reuses the prepared vector: the span
	// stays in the trace for shape stability, but the simulated config-gen
	// time is zero.
	cg := parent.StartChild("config-gen")
	cg.End()
	if cached {
		cg.SetAttr("cached", int64(1))
	} else {
		bd.Add(PhaseConfigGen, s.Model.ConfigGenTime)
		cg.AddSim(s.Model.ConfigGenTime)
	}
	cg.SetAttr("vector_bytes", int64(len(pp.vec)))

	// Step 3: allocate the result BAT (in CPU-FPGA shared memory). A
	// successful result belongs to the caller; a failed attempt gives its
	// bytes of the shared region back.
	result, err := bat.NewShorts(s.Region, col.Count())
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			result.Free()
		}
	}()
	if err := result.SetLen(col.Count()); err != nil {
		return nil, err
	}

	// Steps 4-8: create jobs through the HAL, one partition per engine.
	sub := parent.StartChild("job-submit")
	jobs, err := s.submitPartitioned(ctx, pp.vec, col, result)
	if err != nil {
		// Release the partitions that did submit: they must not linger in
		// the HAL's queued-volume accounting (or hold status blocks) after the
		// query abandons them.
		s.HAL.Discard(jobs...)
		return nil, err
	}
	bd.Add(PhaseHAL, hal.CreateTime)
	sub.End()
	sub.AddSim(hal.CreateTime)
	sub.SetAttr("jobs", int64(len(jobs)))

	// Hand the group to the device runtime and await each partition's
	// completion record. Attribution is per-job, so everything below is
	// this query's own traffic even when a round is shared. A dispatch the
	// admission layer refuses (shed, or ETA over the context's simulated
	// budget) must release the submitted partitions like any other failed
	// submit, or their reservations leak.
	if err := s.HAL.DispatchContext(ctx, jobs...); err != nil {
		s.HAL.Discard(jobs...)
		return nil, err
	}
	var hw HWStats
	hw.Jobs = len(jobs)
	matches := 0
	var cycles int64
	for _, j := range jobs {
		c, err := j.Await(ctx)
		if err != nil {
			return nil, err
		}
		if t := c.HWTime(); t > hw.Time {
			hw.Time = t
		}
		if w := c.QueueWait(); w > hw.QueueWait {
			hw.QueueWait = w
		}
		hw.Add(c.JobLedger)
		matches += j.Stats.Matches
		cycles += int64(j.Stats.PUCycles)
	}
	if hw.QueueWait > 0 {
		bd.Add(PhaseQueue, hw.QueueWait)
	}
	bd.Add(PhaseHardware, hw.Time)

	// The hardware phase's sub-spans run as a pipeline: QPI transfer,
	// engine parametrization, and PU matching overlap in simulated time, so
	// their Sim durations are inclusive and need not sum to the hardware
	// phase.
	hwSpan := parent.NewChild("hardware")
	hwSpan.AddSim(hw.Time)
	qpi := hwSpan.NewChild("qpi-transfer")
	qpi.AddSim(hw.LinkBusy)
	qpi.SetAttr("bytes", hw.Bytes)
	qpi.SetAttr("grants", hw.Grants)
	qpi.SetAttr("switches", hw.Switches)
	disp := hwSpan.NewChild("engine-dispatch")
	disp.AddSim(hal.ParametrizeTime * sim.Time(len(jobs)))
	disp.SetAttr("jobs", int64(len(jobs)))
	pus := s.Device.Deployment.Engines * s.Device.Deployment.PUsPerEngine
	pm := hwSpan.NewChild("pu-match")
	pm.SetAttr("cycles", cycles)
	if pus > 0 {
		// Average per-PU busy time: PUs consume one input byte per
		// 400 MHz cycle, striped across every deployed PU.
		pm.AddSim(sim.PUClock.Cycles(cycles) / sim.Time(pus))
		if hw.Time > 0 {
			s.Tel.Gauge("pu.utilization_pct").Set(
				int64(sim.PUClock.Cycles(cycles)) * 100 / int64(hw.Time*sim.Time(pus)))
			// Basis-point twin for the topdown surfaces: PU occupancy is
			// busy PU-time over the hardware window across every deployed
			// PU, and sub-percent occupancies must not truncate to zero.
			s.Tel.Gauge("topdown.pu_occupancy_bp").Set(
				int64(sim.PUClock.Cycles(cycles)) * 10000 / int64(hw.Time*sim.Time(pus)))
		}
	}
	coll := hwSpan.NewChild("collect")
	coll.AddSim(sim.FromSeconds(float64(col.Count()*2) / 6.5e9))
	coll.SetAttr("result_bytes", int64(col.Count()*2))

	return &Result{
		Matches:      result,
		MatchCount:   matches,
		HW:           hw,
		Breakdown:    &bd,
		ConfigCached: cached,
	}, nil
}

// submitPartitioned splits the column row-wise across the engines and
// submits one job per partition. On error the successfully submitted
// partitions are returned alongside it so the caller can discard them.
func (s *System) submitPartitioned(ctx context.Context, vec []byte, col *bat.Strings, result *bat.Shorts) ([]*hal.Job, error) {
	n := col.Count()
	engines := s.HAL.Engines()
	if n < engines*64 {
		engines = 1
	}
	offsets := col.OffsetBytes()
	heap := col.HeapBytes()
	resBytes := result.Bytes()
	chunk := (n + engines - 1) / engines
	var jobs []*hal.Job
	for e := 0; e < engines; e++ {
		lo, hi := e*chunk, (e+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		p := engine.JobParams{
			Config:      vec,
			Offsets:     offsets[lo*bat.OffsetWidth : hi*bat.OffsetWidth],
			OffsetWidth: bat.OffsetWidth,
			Heap:        heap,
			Count:       hi - lo,
			Result:      resBytes[lo*2 : hi*2],
		}
		j, err := s.HAL.SubmitToContext(ctx, e, p)
		if err != nil {
			return jobs, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// execHybrid runs the prefix on the FPGA and post-processes matching rows
// in software (§7.8). The prefix is a pattern of its own in the config
// cache; the split and the tail matcher come from pp.
func (s *System) execHybrid(ctx context.Context, col *bat.Strings, pp *prepared, parent *telemetry.Span) (*Result, error) {
	hw, cached, err := s.prepare(pp.hwPat, pp.opts)
	if err != nil {
		return nil, err
	}
	res, err := s.execDirect(ctx, col, hw, cached, parent)
	if err != nil {
		return nil, err
	}
	post := parent.StartChild("cpu-post-process")
	matchTail := func(tail []byte) (int, perf.Work) {
		end, steps := pp.tail.Match(tail)
		return end, perf.Work{Steps: steps}
	}
	if pp.tailLit != "" {
		bm := strmatch.NewBoyerMoore([]byte(pp.tailLit), false)
		matchTail = func(tail []byte) (int, perf.Work) {
			before := bm.Comparisons()
			at := bm.Find(tail, 0)
			w := perf.Work{Comparisons: bm.Comparisons() - before}
			if at < 0 {
				return 0, w
			}
			return at + len(pp.tailLit), w
		}
	}
	// Post-process only the rows the FPGA pre-selected: the remainder
	// must match somewhere after the prefix match.
	matches := 0
	var work perf.Work
	for i := 0; i < col.Count(); i++ {
		pos := res.Matches.Get(i)
		if pos == 0 {
			continue
		}
		row := col.Get(i)
		tail := row[min(int(pos), len(row)):]
		end, w := matchTail(tail)
		work.RegexRows++
		work.Add(w)
		work.Bytes += uint64(len(tail))
		if end == 0 {
			res.Matches.Set(i, 0)
			continue
		}
		res.Matches.Set(i, satPos(int(pos)+end))
		matches++
	}
	// The post-processing happens on the software side of the UDF, one
	// thread (§7.8). Literal tails cost a row dispatch plus comparisons;
	// regex tails pay the full PCRE-style invocation.
	swCost := sim.Time(work.RegexRows)*hybridRowDispatch +
		sim.Time(work.Comparisons)*s.Model.CmpCost +
		sim.Time(work.Steps)*s.Model.StepCost
	if work.Steps > 0 {
		swCost += sim.Time(work.RegexRows) * s.Model.RegexRowOverhead
	}
	res.Breakdown.Add(PhaseSoftware, swCost)
	post.End()
	post.AddSim(swCost)
	post.SetAttr("rows", int64(work.RegexRows))
	post.SetAttr("matches", int64(matches))
	res.MatchCount = matches
	res.Hybrid = true
	res.HWPart, res.SWPart = pp.hwPat, pp.swPat
	res.Work = work
	return res, nil
}

func satPos(p int) uint16 {
	if p > 0xFFFF {
		return 0xFFFF
	}
	return uint16(p)
}
