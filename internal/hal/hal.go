// Package hal implements the Hardware Operator Abstraction Layer of §4.2:
// the software library the HUDF calls to create, execute and monitor FPGA
// jobs. Every job is pinned to the Regex Engine its caller names: a query
// partitions its input across the engines (§7.5) and that static
// partition-to-engine assignment is the job distribution this model runs.
//
// All control structures live in the CPU-FPGA shared memory region, as on
// the prototype: the Device Status Memory page used for the AAL handshake,
// the job queue, and per-job parameter and status blocks. The status block
// carries the done bit the UDF busy-waits on (the platform has no
// FPGA-to-CPU interrupts) plus the execution statistics the engine reports.
//
// Functional execution happens synchronously at submit time; *timing* is
// resolved by the asynchronous device runtime (runtime.go): DispatchContext
// hands a query's jobs to the event-loop goroutine that owns the memory model
// and the simulated device clock, and each job's Await delivers its
// individual completion record with per-job QPI attribution.
//
// Because the platform's only health signals are the DSM handshake words
// and each job's done bit, the HAL defends the whole submit→await spine:
// config vectors and status blocks are checksummed (verified at engine
// ingest and at the done-bit read), the done-bit busy-wait runs under a
// simulated-time watchdog with bounded resubmission to the same engine, and
// a per-engine circuit breaker (health.go) quarantines engines that fail
// repeatedly until a fresh AAL handshake readmits them. Fault scenarios are
// driven by internal/faults; with a nil injector every defense is pure
// bookkeeping and results and simulated timings are unchanged.
package hal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"doppiodb/internal/engine"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/fpga"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/shmem"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/topdown"
)

// Control-block layout constants.
const (
	blockSize  = 64 // one cache line per control structure
	queueSlots = 4096

	dsmMagic = 0x4841_4C31 // "HAL1"
	afuID    = 0xD0BB_10DB // the regex AFU's identity
)

// Modelled software/hardware overheads (§7.4's breakdown).
const (
	// CreateTime is the software cost of allocating and populating the
	// parameter and status structures and enqueueing the descriptor.
	CreateTime = 15 * sim.Microsecond
	// ParametrizeTime is the hardware cost of loading the job parameters
	// and configuring a Regex Engine's PUs: "takes around 300 ns".
	ParametrizeTime = 300 * sim.Nanosecond
)

// Errors.
var (
	ErrQueueFull = errors.New("hal: job queue full")
	ErrBadEngine = errors.New("hal: no such engine")
	// ErrCanceled is a job aborted before its round was granted.
	ErrCanceled = errors.New("hal: job canceled before execution")
	// ErrClosed is a submit or dispatch against a closed runtime.
	ErrClosed = errors.New("hal: runtime closed")
	// ErrBadDispatch is a DispatchContext of a nil, already-dispatched, or
	// already-released job.
	ErrBadDispatch = errors.New("hal: job cannot be dispatched")
)

// Job is a submitted FPGA job handle.
type Job struct {
	Engine int          // engine the job is pinned to
	Stats  engine.Stats // functional execution result
	Timing memmodel.Job // data volume for the timing simulation

	statusAddr shmem.Addr
	poolOff    uint32
	region     *shmem.Region
	hal        *HAL
	penalty    sim.Time // watchdog/retry latency accrued before success
	comp       Completion
	finished   bool
	canceled   bool
	failErr    error // typed abort cause Await reports (guarded by hal.mu, read after done closes)
	group      *jobGroup
	done       chan struct{} // closed when the runtime completes or cancels the job
	seq        int64         // HAL-wide job sequence number (flight-recorder key)
}

// Seq returns the HAL-wide job sequence number the flight recorder keys
// its job events by.
func (j *Job) Seq() int64 { return j.seq }

// Status reads the job's status block from shared memory and reports
// whether the done bit is set. A corrupted or unmapped block returns an
// error — distinguishable from "not finished", which a bare done-bit poll
// cannot tell apart.
func (j *Job) Status() (done bool, err error) {
	buf, err := j.region.Bytes(j.statusAddr)
	if err != nil {
		return false, fmt.Errorf("hal: status block read: %w", err)
	}
	return statusBlockState(buf[j.blockOffset() : j.blockOffset()+blockSize])
}

// Done reads the done bit from the status block in shared memory — the bit
// the UDF busy-waits on (§4.2.2 step 8). It delegates to Status; errors
// read as "not done".
func (j *Job) Done() bool {
	done, err := j.Status()
	return err == nil && done
}

// blockOffset is the job's status block offset inside the pool slab.
func (j *Job) blockOffset() int { return int(j.poolOff) }

// blockRef locates a status block for the free list.
type blockRef struct {
	addr shmem.Addr
	off  uint32
}

// HAL is the abstraction layer instance bound to one programmed device.
type HAL struct {
	region  *shmem.Region
	dev     *fpga.Device
	engines []*engine.Engine
	params  memmodel.Params
	tel     *telemetry.Registry
	inj     *faults.Injector
	rec     *flightrec.Recorder
	// queueWait is the per-job backlog-wait histogram (simulated ns),
	// cached so the hot completion path skips the registry lookup.
	queueWait *telemetry.Histogram

	mu        sync.Mutex
	cond      *sync.Cond // wakes the runtime's event loop (backlog/resume/close) and blocked dispatchers
	simEpoch  sim.Time   // continuous simulated timeline across arbitration rounds
	jobSeq    int64      // HAL-wide job sequence (flight-recorder key)
	backlog   []*jobGroup
	admitCap  int             // max in-flight jobs per engine in one round
	admission AdmissionLimits // backlog caps + shed/block policy (zero: unbounded)
	// blockedWaiters counts dispatchers parked on the block policy;
	// peak* are backlog high-water marks (soak asserts them vs. the caps).
	blockedWaiters                  int
	peakGroups, peakJobs, peakBytes int64
	// dispatchedGroups counts every job group admitted to the backlog over
	// the HAL's lifetime — the denominator of shared-scan coalescing (N
	// identical queries riding one group dispatch fewer groups than queries).
	dispatchedGroups int64
	resetting        bool // fabric reset in progress (health state machine)
	paused           bool // admission suspended (tests observe queue buildup)
	closed           bool
	loopOn           bool    // event-loop goroutine started
	queuedVol        []int64 // per-engine running byte totals (QueuedBytes, the admission ETA)
	// tdEngines/tdLink/tdRounds accumulate the topdown cycle ledgers
	// across arbitration rounds (per-engine buckets conserve exactly:
	// each round's ledger does, and Add is field-wise).
	tdEngines []topdown.Buckets
	tdLink    topdown.LinkBuckets
	tdRounds  int64
	health    []engineHealth
	dsmAddr   shmem.Addr
	// dsmMu guards the DSM handshake words: submitters verify (and the
	// injector clobbers) them without h.mu, concurrently with each other
	// and with health probes.
	dsmMu     sync.Mutex
	poolAddr  shmem.Addr
	poolNext  int
	blockFree []blockRef
	queueAddr shmem.Addr
	queueLen  int // live reservations against queueSlots
	slotNext  int // next descriptor slot in the shared-memory queue
}

// New boots the HAL: it performs the AAL handshake (allocating the DSM page
// and verifying the AFU identity), allocates the shared-memory job queue,
// and instantiates the engine frontends. The HAL starts detached from every
// sink — no registry, no flight recorder — until SetTelemetry / SetRecorder
// bind its owner's. Fault injection starts at what DOPPIO_FAULTS describes
// (faults.Default); SetInjector overrides it.
func New(region *shmem.Region, dev *fpga.Device) (*HAL, error) {
	if region == nil || dev == nil {
		return nil, errors.New("hal: need a shared region and a programmed device")
	}
	h := &HAL{
		region: region,
		dev:    dev,
		params: memmodel.Default(),
		inj:    faults.Default(),
	}
	h.params.EngineBandwidth = dev.Deployment.EngineBandwidth()
	h.cond = sync.NewCond(&h.mu)
	h.admitCap = DefaultAdmissionCap
	for i := 0; i < dev.Deployment.Engines; i++ {
		h.engines = append(h.engines, engine.New(dev, i))
	}
	h.queuedVol = make([]int64, len(h.engines))
	h.tdEngines = make([]topdown.Buckets, len(h.engines))
	h.health = make([]engineHealth, len(h.engines))

	var err error
	if h.dsmAddr, err = region.Alloc(shmem.MinSlab); err != nil {
		return nil, fmt.Errorf("hal: DSM allocation: %w", err)
	}
	if h.poolAddr, err = region.Alloc(shmem.MinSlab); err != nil {
		return nil, fmt.Errorf("hal: status pool allocation: %w", err)
	}
	if h.queueAddr, err = region.Alloc(queueSlots * blockSize); err != nil {
		return nil, fmt.Errorf("hal: job queue allocation: %w", err)
	}
	// AAL handshake: software writes its magic into the DSM; the "AFU"
	// answers with its ID. Both sides then agree the right bitstream is
	// loaded (§2.2).
	dsm, err := region.Bytes(h.dsmAddr)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dsm[0:], dsmMagic)
	binary.LittleEndian.PutUint32(dsm[4:], afuID)
	return h, nil
}

// queueWaitBounds bucket the backlog wait from "admitted immediately"
// (≤1 µs) up to a saturated second, one decade per bucket edge pair.
var queueWaitBounds = []int64{
	1_000, 10_000, 100_000, 1_000_000, 5_000_000, 10_000_000,
	50_000_000, 100_000_000, 500_000_000, 1_000_000_000,
}

// SetTelemetry binds the HAL and its engine frontends to reg and asserts
// the engine-health gauges there.
func (h *HAL) SetTelemetry(reg *telemetry.Registry) {
	h.tel = reg
	h.queueWait = reg.Histogram("hal.queue_wait_ns", queueWaitBounds...)
	for _, e := range h.engines {
		e.SetTelemetry(reg)
	}
	h.mu.Lock()
	healthy := h.healthyLocked()
	h.mu.Unlock()
	reg.Gauge("hal.engines.total").Set(int64(len(h.engines)))
	reg.Gauge("hal.engines.healthy").Set(healthy)
}

// SetInjector rebinds fault injection. nil disables it.
func (h *HAL) SetInjector(in *faults.Injector) { h.inj = in }

// SetRecorder binds the flight recorder. nil disables recording.
func (h *HAL) SetRecorder(r *flightrec.Recorder) { h.rec = r }

// Recorder returns the HAL's flight recorder.
func (h *HAL) Recorder() *flightrec.Recorder { return h.rec }

// SimEpoch returns the start of the next arbitration round on the
// recorder's continuous simulated timeline.
func (h *HAL) SimEpoch() sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.simEpoch
}

// Device returns the programmed device.
func (h *HAL) Device() *fpga.Device { return h.dev }

// Engines returns the engine count.
func (h *HAL) Engines() int { return len(h.engines) }

// Topdown returns the fabric's cumulative cycle-conservation ledgers: one
// per engine plus the QPI link, accumulated over every arbitration round
// this HAL has run. Each engine's buckets sum exactly to its wall.
func (h *HAL) Topdown() topdown.FabricReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := topdown.FabricReport{
		Engines: make([]topdown.EngineReport, len(h.tdEngines)),
		Link:    h.tdLink,
		Rounds:  h.tdRounds,
	}
	for e, b := range h.tdEngines {
		rep.Engines[e] = topdown.EngineReport{Engine: e, Buckets: b}
	}
	return rep
}

// AFUPresent re-checks the handshake result.
func (h *HAL) AFUPresent() bool {
	dsm, err := h.region.Bytes(h.dsmAddr)
	if err != nil {
		return false
	}
	h.dsmMu.Lock()
	defer h.dsmMu.Unlock()
	return binary.LittleEndian.Uint32(dsm[0:]) == dsmMagic &&
		binary.LittleEndian.Uint32(dsm[4:]) == afuID
}

// SubmitToContext enqueues a job for engine engineID and executes it
// functionally (partitioned execution pins each partition to its own
// engine). The returned handle's done bit is set in shared memory; its
// timing is resolved by the device runtime after DispatchContext. Under
// injected faults the job is retried on the same engine, up to maxAttempts
// attempts, before a typed fault error is returned; a canceled ctx stops
// the retries between attempts.
func (h *HAL) SubmitToContext(ctx context.Context, engineID int, p engine.JobParams) (*Job, error) {
	if engineID < 0 || engineID >= len(h.engines) {
		return nil, ErrBadEngine
	}
	h.checkHandshake()
	cfgSum := crc32.ChecksumIEEE(p.Config)
	var penalty sim.Time
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if h.isQuarantined(engineID) && !h.tryReadmit(engineID) {
			return nil, fmt.Errorf("hal: engine %d: %w", engineID, ErrEngineQuarantined)
		}
		j, err := h.attempt(engineID, p, cfgSum, penalty)
		if err == nil {
			h.noteSuccess(engineID)
			return j, nil
		}
		if !IsFault(err) {
			return nil, err
		}
		lastErr = err
		h.noteFailure(engineID)
		penalty += DoneWaitTimeout
		if attempt < maxAttempts-1 {
			h.tel.Counter("hal.retries").Inc()
		}
	}
	return nil, fmt.Errorf("hal: %d attempts failed: %w (last: %v)",
		maxAttempts, ErrRetriesExhausted, lastErr)
}

// attempt runs one submission on engine e. Capacity is checked and the
// status block reserved *before* the engine burns any work; the engine
// ingest verifies the config-vector checksum; and the done-bit busy-wait
// runs under the watchdog. A failed attempt releases every reservation.
func (h *HAL) attempt(e int, p engine.JobParams, cfgSum uint32, penalty sim.Time) (*Job, error) {
	// Engine drop-out fires at the job-accept handshake, before any work.
	if !h.inj.EngineAccepts(e) {
		h.tel.Counter("hal.faults.engine_drop").Inc()
		h.recordCtl(flightrec.EvFault, e, 0, "engine-drop")
		return nil, fmt.Errorf("hal: engine %d: %w", e, ErrEngineDropped)
	}

	// Reserve the queue slot and status block up front so a full queue or
	// exhausted pool cannot burn engine work.
	h.mu.Lock()
	if h.queueLen >= queueSlots {
		h.mu.Unlock()
		return nil, ErrQueueFull
	}
	statusAddr, off, err := h.allocBlockLocked()
	if err != nil {
		h.mu.Unlock()
		return nil, err
	}
	h.queueLen++
	h.mu.Unlock()
	fail := func(err error) (*Job, error) {
		h.mu.Lock()
		h.freeBlockLocked(statusAddr, off)
		h.queueLen--
		h.mu.Unlock()
		return nil, err
	}

	// Parametrize: the config vector crosses QPI (where the injector may
	// damage it); the engine verifies the checksum at ingest, so a
	// corrupted expression can never configure a PU.
	cfg := p.Config
	if h.inj.Hit(faults.ConfigCorrupt) {
		cfg = h.inj.CorruptCopy(cfg)
	}
	if crc32.ChecksumIEEE(cfg) != cfgSum {
		h.tel.Counter("hal.faults.config_corrupt").Inc()
		h.recordCtl(flightrec.EvFault, e, 0, "config-corrupt")
		return fail(fmt.Errorf("hal: engine %d: %w", e, ErrConfigCorrupt))
	}
	st, err := h.engines[e].Execute(p)
	if err != nil {
		return fail(err)
	}

	j := &Job{
		Engine:     e,
		Stats:      st,
		Timing:     engine.TimingJob(p, st),
		statusAddr: statusAddr,
		poolOff:    off,
		region:     h.region,
		hal:        h,
		penalty:    penalty,
		done:       make(chan struct{}),
	}

	// The engine writes the status block (done bit + statistics + CRC) —
	// unless it wedges (stuck done) or the write is damaged in flight.
	pool, err := h.region.Bytes(statusAddr)
	if err != nil {
		return fail(err)
	}
	blk := pool[off : off+blockSize]
	if !h.inj.Hit(faults.StuckDone) {
		blk[0] = 1 // done bit
		binary.LittleEndian.PutUint32(blk[4:], uint32(st.Strings))
		binary.LittleEndian.PutUint32(blk[8:], uint32(st.Matches))
		binary.LittleEndian.PutUint64(blk[12:], uint64(st.HeapBytes))
		sealStatusBlock(blk)
		if h.inj.Hit(faults.StatusCorrupt) {
			h.inj.FlipByte(blk[4:statusChecksum])
		}
	}

	// Step 8's busy-wait, under the simulated-time watchdog.
	done, serr := j.Status()
	if serr != nil {
		h.tel.Counter("hal.faults.status_corrupt").Inc()
		h.recordCtl(flightrec.EvFault, e, 0, "status-corrupt")
		return fail(fmt.Errorf("hal: engine %d: %w", e, serr))
	}
	if !done {
		h.tel.Counter("hal.faults.stuck_done").Inc()
		h.recordCtl(flightrec.EvWatchdog, e, 0, "stuck-done")
		return fail(fmt.Errorf("hal: engine %d: %w", e, ErrDoneTimeout))
	}

	// The job completed functionally: publish the descriptor and account
	// its volume as queued until the runtime resolves its timing.
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		h.freeBlockLocked(statusAddr, off)
		h.queueLen--
		return nil, ErrClosed
	}
	q, err := h.region.Bytes(h.queueAddr)
	if err != nil {
		h.freeBlockLocked(statusAddr, off)
		h.queueLen--
		return nil, err
	}
	h.jobSeq++
	j.seq = h.jobSeq
	slot := q[h.slotNext*blockSize:]
	binary.LittleEndian.PutUint64(slot[0:], uint64(statusAddr)+uint64(off))
	binary.LittleEndian.PutUint32(slot[8:], uint32(e))
	binary.LittleEndian.PutUint32(slot[12:], uint32(st.Strings))
	h.slotNext = (h.slotNext + 1) % queueSlots

	h.queuedVol[e] += int64(j.Timing.TotalBytes())

	// DSM-style counters: accumulate from the status block just written,
	// exactly as a monitor polling the Device Status Memory would.
	h.tel.Counter("hal.jobs").Inc()
	h.tel.Counter("hal.dsm.strings").Add(int64(binary.LittleEndian.Uint32(blk[4:])))
	h.tel.Counter("hal.dsm.matches").Add(int64(binary.LittleEndian.Uint32(blk[8:])))
	h.tel.Counter("hal.dsm.heap_bytes").Add(int64(binary.LittleEndian.Uint64(blk[12:])))
	h.tel.Gauge("hal.queue_depth").Set(int64(h.queueLen))
	h.rec.Record(flightrec.Event{
		Type:   flightrec.EvJobSubmit,
		Sim:    h.simEpoch,
		Engine: e,
		Unit:   -1,
		Job:    j.seq,
		Arg:    int64(j.Timing.TotalBytes()),
	})
	return j, nil
}

// recordCtl records a control-plane instant stamped at the current batch
// epoch. Must be called without h.mu held.
func (h *HAL) recordCtl(t flightrec.Type, e int, job int64, note string) {
	if h.rec == nil {
		return
	}
	h.rec.Record(flightrec.Event{
		Type:   t,
		Sim:    h.SimEpoch(),
		Engine: e,
		Unit:   -1,
		Job:    job,
		Note:   note,
	})
}

// allocBlockLocked hands out a 64-byte status block, reusing released
// blocks before carving new ones from the pool slab.
func (h *HAL) allocBlockLocked() (shmem.Addr, uint32, error) {
	if n := len(h.blockFree); n > 0 {
		b := h.blockFree[n-1]
		h.blockFree = h.blockFree[:n-1]
		return b.addr, b.off, nil
	}
	if (h.poolNext+1)*blockSize > shmem.MinSlab {
		// Pool exhausted: start a fresh slab.
		a, err := h.region.Alloc(shmem.MinSlab)
		if err != nil {
			return 0, 0, err
		}
		h.poolAddr = a
		h.poolNext = 0
	}
	off := uint32(h.poolNext * blockSize)
	h.poolNext++
	return h.poolAddr, off, nil
}

// freeBlockLocked zeroes a status block (so reuse reads as "never written")
// and returns it to the free list.
func (h *HAL) freeBlockLocked(addr shmem.Addr, off uint32) {
	if pool, err := h.region.Bytes(addr); err == nil {
		clear(pool[off : off+blockSize])
	}
	h.blockFree = append(h.blockFree, blockRef{addr, off})
}

// recordJobTimelineLocked emits the per-engine and per-PU timeline of one
// completed job: the parametrization window, the execution window, and one
// busy window per Processing Unit. The PU share is the hardware model's:
// all deployed PUs of the engine carry the same configuration and the
// round-robin dispatch stripes the input evenly across them, each consuming
// one input byte per 400 MHz cycle. Caller holds h.mu, with simEpoch still
// at the job's round start.
func (h *HAL) recordJobTimelineLocked(e int, j *Job, start, end sim.Time) {
	base := h.simEpoch
	h.rec.Record(flightrec.Event{
		Type:   flightrec.EvEngineConfig,
		Sim:    base + start,
		Dur:    ParametrizeTime,
		Domain: flightrec.DomainFabric,
		Cycles: sim.FabricClock.CyclesFor(ParametrizeTime),
		Engine: e,
		Unit:   -1,
		Job:    j.seq,
	})
	h.rec.Record(flightrec.Event{
		Type:   flightrec.EvJobExec,
		Sim:    base + start,
		Dur:    end - start + ParametrizeTime,
		Engine: e,
		Unit:   -1,
		Job:    j.seq,
		Arg:    int64(j.Timing.TotalBytes()),
	})
	pus := h.dev.Deployment.PUsPerEngine
	if pus <= 0 || j.Stats.PUCycles == 0 {
		return
	}
	share := int64(j.Stats.PUCycles) / int64(pus)
	rem := int64(j.Stats.PUCycles) % int64(pus)
	for u := 0; u < pus; u++ {
		c := share
		if int64(u) < rem {
			c++
		}
		if c == 0 {
			continue
		}
		h.rec.Record(flightrec.Event{
			Type:   flightrec.EvPUBusy,
			Sim:    base + start + ParametrizeTime,
			Domain: flightrec.DomainPU,
			Cycles: c,
			Engine: e,
			Unit:   u,
			Job:    j.seq,
		})
	}
}

// scrubStatusLocked re-verifies a drained job's status block and rewrites
// it from the HAL's own statistics when shared memory was corrupted after
// the submit-time check.
func (h *HAL) scrubStatusLocked(j *Job) {
	pool, err := h.region.Bytes(j.statusAddr)
	if err != nil {
		return
	}
	blk := pool[j.poolOff : j.poolOff+blockSize]
	if _, serr := statusBlockState(blk); serr == nil {
		return
	}
	h.tel.Counter("hal.faults.status_corrupt").Inc()
	h.tel.Counter("hal.status_scrubbed").Inc()
	blk[0] = 1
	binary.LittleEndian.PutUint32(blk[4:], uint32(j.Stats.Strings))
	binary.LittleEndian.PutUint32(blk[8:], uint32(j.Stats.Matches))
	binary.LittleEndian.PutUint64(blk[12:], uint64(j.Stats.HeapBytes))
	sealStatusBlock(blk)
}

// Params exposes the memory-model parameters (tests tweak them).
func (h *HAL) Params() *memmodel.Params { return &h.params }

// QueuedBytes returns the total data volume of jobs awaiting timing
// resolution — submitted, backlogged, or in the running round — the FPGA's
// "current load", which §9 notes a stock UDF interface cannot expose to
// the query optimizer. O(engines) over the per-engine running totals.
func (h *HAL) QueuedBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total int64
	for _, v := range h.queuedVol {
		total += v
	}
	return total
}

// GroupsDispatched returns the lifetime count of job groups admitted to
// the backlog. With shared-scan coalescing on, N concurrent identical
// queries advance this by fewer than N.
func (h *HAL) GroupsDispatched() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dispatchedGroups
}
