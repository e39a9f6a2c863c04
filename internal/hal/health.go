// Engine health tracking and fault recovery: the defensive half of the
// robustness layer. The HARP platform gives software exactly two signals
// about the hardware's wellbeing — the AAL handshake words in the DSM and
// the done bit of each job's status block (§2.2, §4.2.2) — so the HAL
// derives everything else: a simulated-time watchdog on the done-bit wait,
// checksums over the control structures that cross the QPI link, and a
// per-engine circuit breaker that quarantines an engine after consecutive
// failures and re-runs the handshake before readmitting it.
package hal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// Fault-recovery tuning.
const (
	// maxAttempts bounds the submit retry loop: one initial attempt plus
	// bounded resubmission to the same engine.
	maxAttempts = 3
	// quarantineAfter is the consecutive-failure threshold of the
	// per-engine circuit breaker.
	quarantineAfter = 3
	// DoneWaitTimeout is the simulated-time watchdog budget of one
	// done-bit busy-wait. Every failed attempt adds this much latency to
	// the job that eventually completes (degraded, never hung).
	DoneWaitTimeout = 100 * sim.Microsecond
)

// ErrEngineFault is the umbrella sentinel every hardware-fault error wraps:
// errors.Is(err, ErrEngineFault) is the one check callers need to decide
// "degrade to software" without enumerating fault classes. The concrete
// sentinels below remain errors.Is-able individually.
var ErrEngineFault = errors.New("hal: engine fault")

// faultError is a typed hardware-fault sentinel: it matches ErrEngineFault
// under errors.Is. Every fault class can heal across attempts (a wedged done
// bit, a dropped engine, a damaged transfer — the injector's recovery paths
// and the breaker's readmission exist for exactly that), so the query-level
// retry layer retries any of them before degrading.
type faultError struct{ msg string }

func (e *faultError) Error() string { return e.msg }

// Is matches the umbrella ErrEngineFault sentinel (errors.Is handles
// identity to the concrete sentinel itself).
func (e *faultError) Is(target error) bool { return target == ErrEngineFault }

// Typed fault errors. Each maps to a detection counter under hal.faults.*;
// all wrap ErrEngineFault (IsFault) so callers (core.System.Exec) can
// degrade to the software operator instead of failing the query.
var (
	// ErrDoneTimeout is the watchdog firing: the done bit never set
	// within the simulated busy-wait budget.
	ErrDoneTimeout error = &faultError{msg: "hal: watchdog timeout waiting for done bit"}
	// ErrConfigCorrupt is a config-vector checksum mismatch at engine
	// ingest (the vector was damaged crossing QPI).
	ErrConfigCorrupt error = &faultError{msg: "hal: config vector checksum mismatch at engine ingest"}
	// ErrStatusCorrupt is a status-block checksum mismatch at the
	// done-bit read.
	ErrStatusCorrupt error = &faultError{msg: "hal: status block checksum mismatch"}
	// ErrEngineDropped is an engine refusing the job-accept handshake.
	ErrEngineDropped error = &faultError{msg: "hal: engine stopped accepting jobs"}
	// ErrEngineQuarantined is a submit to an engine the circuit breaker
	// holds quarantined and a fresh handshake could not readmit.
	ErrEngineQuarantined error = &faultError{msg: "hal: engine is quarantined"}
	// ErrRetriesExhausted means a job failed on every attempt.
	ErrRetriesExhausted error = &faultError{msg: "hal: job failed after bounded retries"}
)

// IsFault reports whether err is a hardware-fault error the caller may
// recover from by degrading to the software path. Validation and capacity
// errors (bad parameters, expression over the deployed limits, ErrQueueFull)
// are not faults — and neither are the admission layer's ErrOverload and
// ErrDeadlineExceeded: a shed query was refused, not broken.
func IsFault(err error) bool { return errors.Is(err, ErrEngineFault) }

// EngineHealth is one engine's circuit-breaker snapshot.
type EngineHealth struct {
	Engine       int
	Quarantined  bool
	ConsecFails  int   // consecutive failed attempts (resets on success)
	Jobs         int64 // successfully completed jobs
	Fails        int64 // failed attempts, lifetime
	Readmissions int64 // times the engine returned from quarantine
}

// engineHealth is the mutable tracker state. Guarded by HAL.mu.
type engineHealth struct {
	quarantined  bool
	consecFails  int
	jobs         int64
	fails        int64
	readmissions int64
}

// Health returns a per-engine snapshot of the circuit breaker (doppiosh's
// \health).
func (h *HAL) Health() []EngineHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]EngineHealth, len(h.health))
	for i := range h.health {
		hs := &h.health[i]
		out[i] = EngineHealth{
			Engine:       i,
			Quarantined:  hs.quarantined,
			ConsecFails:  hs.consecFails,
			Jobs:         hs.jobs,
			Fails:        hs.fails,
			Readmissions: hs.readmissions,
		}
	}
	return out
}

// noteSuccess records a completed job on engine e.
func (h *HAL) noteSuccess(e int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.health[e].consecFails = 0
	h.health[e].jobs++
}

// noteFailure records a failed attempt on engine e, trips the circuit
// breaker after quarantineAfter consecutive failures, and — when a quorum
// of breakers has latched — triggers the fabric reset.
func (h *HAL) noteFailure(e int) {
	h.mu.Lock()
	hs := &h.health[e]
	hs.consecFails++
	hs.fails++
	reset := false
	if !hs.quarantined && hs.consecFails >= quarantineAfter {
		hs.quarantined = true
		h.tel.Counter("hal.engine.quarantined").Inc()
		h.tel.Gauge("hal.engines.healthy").Set(h.healthyLocked())
		h.tel.Gauge(fmt.Sprintf("hal.engine.%d.quarantined", e)).Set(1)
		h.rec.Record(flightrec.Event{
			Type:   flightrec.EvBreakerTrip,
			Sim:    h.simEpoch,
			Engine: e,
			Unit:   -1,
			Arg:    int64(hs.consecFails),
		})
		// Quorum check: once half or more of the fabric is quarantined,
		// per-engine recovery has lost — reset the whole device.
		quarantined := int64(len(h.engines)) - h.healthyLocked()
		if !h.resetting && quarantined*2 >= int64(len(h.engines)) {
			h.resetting = true
			reset = true
		}
	}
	h.mu.Unlock()
	if reset {
		h.fabricReset()
	}
}

// fabricReset is the recovery of last resort, taken when a quorum of engine
// breakers has latched: re-run the AAL handshake, scrub every backlogged
// job's status block, and re-arm the breakers by probing each quarantined
// engine. Engines whose probe still fails stay quarantined — the reset
// restores whatever the fabric will give back, it does not fake health.
func (h *HAL) fabricReset() {
	h.tel.Counter("hal.fabric_resets").Inc()
	h.recordCtl(flightrec.EvFabricReset, -1, 0, "quorum of engine breakers latched")
	h.rehandshake()
	h.mu.Lock()
	for _, g := range h.backlog {
		for _, j := range g.jobs {
			h.scrubStatusLocked(j)
		}
	}
	quarantined := make([]bool, len(h.engines))
	for e := range h.health {
		quarantined[e] = h.health[e].quarantined
	}
	h.mu.Unlock()
	for e, q := range quarantined {
		if q {
			h.tryReadmit(e)
		}
	}
	h.mu.Lock()
	h.resetting = false
	h.cond.Broadcast()
	h.mu.Unlock()
}

// FabricResets returns the lifetime fabric-reset count, read back from the
// bound registry (0 while the HAL is detached).
func (h *HAL) FabricResets() int64 {
	return h.tel.Counter("hal.fabric_resets").Value()
}

// State is the runtime's health state machine, in degrading order of
// severity: "resetting" while a fabric reset is re-arming the breakers,
// "degraded" when any engine is quarantined or the AFU handshake is lost,
// "overloaded" when the backlog sits at an admission cap or dispatchers are
// parked on the block policy, "ok" otherwise.
func (h *HAL) State() string {
	afu := h.AFUPresent()
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.resetting:
		return "resetting"
	case !afu || h.healthyLocked() < int64(len(h.engines)):
		return "degraded"
	case h.blockedWaiters > 0 ||
		(h.admission.bounded() && !h.roomLocked(1, 1)):
		return "overloaded"
	default:
		return "ok"
	}
}

// healthyLocked counts non-quarantined engines. Caller holds h.mu.
func (h *HAL) healthyLocked() int64 {
	var n int64
	for i := range h.health {
		if !h.health[i].quarantined {
			n++
		}
	}
	return n
}

// isQuarantined reports engine e's breaker state.
func (h *HAL) isQuarantined(e int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.health[e].quarantined
}

// tryReadmit re-runs the AAL handshake and probes engine e; on success the
// engine accepts jobs again.
func (h *HAL) tryReadmit(e int) bool {
	// The handshake is the only proof the right bitstream still answers
	// (§2.2): re-establish it before trusting the engine again.
	if !h.AFUPresent() {
		h.rehandshake()
		if !h.AFUPresent() {
			return false
		}
	}
	if !h.inj.ProbeEngine(e) {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := &h.health[e]
	if !hs.quarantined {
		return true
	}
	hs.quarantined = false
	hs.consecFails = 0
	hs.readmissions++
	h.tel.Counter("hal.engine.readmitted").Inc()
	h.tel.Gauge("hal.engines.healthy").Set(h.healthyLocked())
	h.tel.Gauge(fmt.Sprintf("hal.engine.%d.quarantined", e)).Set(0)
	h.rec.Record(flightrec.Event{
		Type:   flightrec.EvReadmit,
		Sim:    h.simEpoch,
		Engine: e,
		Unit:   -1,
	})
	return true
}

// rehandshake rewrites the DSM handshake words — software's half of the AAL
// protocol — after a detected handshake loss.
func (h *HAL) rehandshake() {
	dsm, err := h.region.Bytes(h.dsmAddr)
	if err != nil {
		return
	}
	h.dsmMu.Lock()
	binary.LittleEndian.PutUint32(dsm[0:], dsmMagic)
	binary.LittleEndian.PutUint32(dsm[4:], afuID)
	h.dsmMu.Unlock()
	h.tel.Counter("hal.rehandshakes").Inc()
}

// checkHandshake runs before every submit: it gives the injector its
// chance to clobber the DSM, then verifies and (if needed) re-establishes
// the handshake.
func (h *HAL) checkHandshake() {
	if h.inj.Hit(faults.HandshakeLoss) {
		if dsm, err := h.region.Bytes(h.dsmAddr); err == nil {
			h.dsmMu.Lock()
			h.inj.Clobber(dsm[:8])
			h.dsmMu.Unlock()
		}
	}
	if !h.AFUPresent() {
		h.tel.Counter("hal.faults.handshake_loss").Inc()
		h.recordCtl(flightrec.EvFault, -1, 0, "handshake-loss")
		h.rehandshake()
	}
}

// HealthCounters is the engine-health view of a telemetry snapshot — what
// doppiobench folds into its -json / -metrics-out documents so a run's
// degradations are visible without a live System. Gauges reflect the most
// recently booted system; counters accumulate across every system of the
// process.
type HealthCounters struct {
	// EnginesTotal / EnginesHealthy mirror the hal.engines.* gauges.
	EnginesTotal   int64 `json:"engines_total"`
	EnginesHealthy int64 `json:"engines_healthy"`
	// DegradedQueries counts queries answered by the software fallback
	// (core.fallback.software).
	DegradedQueries int64 `json:"degraded_queries"`
	// Recovery-path counters.
	Retries        int64 `json:"retries"`
	Rehandshakes   int64 `json:"rehandshakes"`
	StatusScrubbed int64 `json:"status_scrubbed"`
	Quarantines    int64 `json:"quarantines"`
	Readmissions   int64 `json:"readmissions"`
	// Faults maps each hal.faults.* detection counter to its count.
	Faults map[string]int64 `json:"faults"`
}

// SummaryFromMetrics derives the health view from a telemetry snapshot.
func SummaryFromMetrics(s telemetry.Snapshot) HealthCounters {
	hc := HealthCounters{
		EnginesTotal:    s.Gauge("hal.engines.total"),
		EnginesHealthy:  s.Gauge("hal.engines.healthy"),
		DegradedQueries: s.Counter("core.fallback.software"),
		Retries:         s.Counter("hal.retries"),
		Rehandshakes:    s.Counter("hal.rehandshakes"),
		StatusScrubbed:  s.Counter("hal.status_scrubbed"),
		Quarantines:     s.Counter("hal.engine.quarantined"),
		Readmissions:    s.Counter("hal.engine.readmitted"),
		Faults:          make(map[string]int64),
	}
	for name, v := range s.Counters {
		if rest, ok := strings.CutPrefix(name, "hal.faults."); ok {
			hc.Faults[rest] = v
		}
	}
	return hc
}

// Status-block checksum layout: the engine writes done bit + statistics in
// bytes [0,20) and a CRC-32 over them at [20,24) (§3 step 8's statistics
// write, hardened). An all-zero block is a job that never completed.
const (
	statusPayload  = 20
	statusChecksum = 24
)

// sealStatusBlock stamps the checksum over a freshly written block.
func sealStatusBlock(blk []byte) {
	binary.LittleEndian.PutUint32(blk[statusPayload:statusChecksum],
		crc32.ChecksumIEEE(blk[:statusPayload]))
}

// statusBlockState classifies a status block: never written (pending),
// valid, or corrupted.
func statusBlockState(blk []byte) (done bool, err error) {
	zero := true
	for _, b := range blk[:statusChecksum] {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return false, nil // engine has not written yet: still pending
	}
	want := binary.LittleEndian.Uint32(blk[statusPayload:statusChecksum])
	if crc32.ChecksumIEEE(blk[:statusPayload]) != want {
		return false, ErrStatusCorrupt
	}
	return blk[0] != 0, nil
}
