// Package flightrec is the black-box flight recorder of the simulated
// Xeon+FPGA platform: a bounded ring buffer of structured events — job
// submit and dispatch, engine parametrization, per-PU busy windows, QPI
// arbiter grant bursts and offset↔heap phase switches, watchdog fires,
// circuit-breaker trips and readmissions, degradations to the software
// operator — recorded always-on at negligible cost.
//
// Every event carries two clocks: the wall time of the host process and a
// simulated timestamp on a continuous timeline the device runtime maintains
// across arbitration rounds. Hardware-side events additionally carry a cycle count in
// their clock domain (the 200 MHz fabric or the 400 MHz Processing Units),
// so the exported timeline renders each domain at its own period — the
// "waveform" view the paper's evaluation figures imply.
//
// The recorder is a ring: when it wraps, the oldest events are overwritten
// and counted as dropped. That is the point — like an aircraft flight
// recorder it always holds the most recent window, so when the fault layer
// degrades a query the window explains what the hardware did leading up to
// it. Recording is nil-safe and cheap (one short critical section, no
// allocation); an unwired component costs one branch.
package flightrec

import (
	"fmt"
	"io"
	"sync"
	"time"

	"doppiodb/internal/sim"
)

// Type enumerates the recorded event kinds.
type Type uint8

const (
	// EvJobSubmit is the UDF handing a job to the HAL (wall-clocked).
	EvJobSubmit Type = iota
	// EvJobExec is an engine's execution window of one job on the
	// simulated timeline (resolved when its round runs).
	EvJobExec
	// EvEngineConfig is the engine parametrization window (the ~300 ns
	// configuration-vector load) at the head of a job.
	EvEngineConfig
	// EvPUBusy is one Processing Unit's busy window within a job; Cycles
	// counts 400 MHz PU cycles.
	EvPUBusy
	// EvGrantBurst is a contiguous run of arbiter grants on the QPI link;
	// Arg is the cache lines moved, Cycles the 200 MHz fabric cycles.
	EvGrantBurst
	// EvPhaseSwitch is a String Reader offset↔heap turn charging the
	// switch stall (§7.3's latency a lone engine cannot hide).
	EvPhaseSwitch
	// EvWatchdog is the done-bit watchdog firing.
	EvWatchdog
	// EvFault is a detected hardware fault (Note names the class).
	EvFault
	// EvBreakerTrip is the per-engine circuit breaker quarantining an
	// engine.
	EvBreakerTrip
	// EvReadmit is an engine returning from quarantine after a fresh
	// handshake and probe.
	EvReadmit
	// EvDegrade is a query degrading to the software operator.
	EvDegrade
	// EvDump marks a forensics dump request (SIGQUIT, \dump, degrade).
	EvDump
	// EvJobQueue is a dispatched job entering the device runtime's FIFO
	// backlog; Arg is the job's data volume in bytes.
	EvJobQueue
	// EvJobAdmit is the admission layer moving a job into an arbitration
	// round; Arg is the queue delay it accrued, in simulated nanoseconds.
	EvJobAdmit
	// EvJobCancel is a backlogged job aborted before its round was granted
	// (context cancellation, discard, or runtime shutdown).
	EvJobCancel
	// EvCalibDrift is the cost-model calibration auditor's drift alarm: the
	// rolling prediction error of a cost term left its configured band (Note
	// names the term and the rolling mean error).
	EvCalibDrift
	// EvShed is the admission layer rejecting (or a blocked dispatcher
	// abandoning) a group because the backlog sat at a configured cap; Arg
	// is the group's job count.
	EvShed
	// EvDeadline is the deadline machinery acting: a group refused at
	// admission (cost-model ETA over budget) or aborted overdue at a round
	// boundary; Arg carries the ETA or the overshoot in simulated ns.
	EvDeadline
	// EvRetry is the query layer re-running a transiently failed hardware
	// query after a simulated backoff; Arg is the backoff in simulated ns.
	EvRetry
	// EvFabricReset is the full device reset after a quorum of engine
	// breakers latched: re-handshake, status scrub, breaker re-arm.
	EvFabricReset
	// EvSLOBurn is the SLO engine's multi-window burn-rate alert changing
	// state: the error-budget burn exceeded the threshold over both the
	// fast and slow windows (Note carries the rates), or cleared (Arg 0).
	EvSLOBurn
	// EvUtilSample is the topdown layer's per-round utilization sample:
	// one per engine (Vals = busy/stall-in/stall-sw/stall-out/config/idle
	// basis points of the round wall) and one for the QPI link (Engine -1,
	// Vals = busy/arbitration/idle basis points). Dur spans the round; the
	// Perfetto exporter turns these into counter tracks.
	EvUtilSample

	numTypes
)

var typeNames = [numTypes]string{
	"job-submit", "job-exec", "engine-config", "pu-busy", "grant-burst",
	"phase-switch", "watchdog", "fault", "breaker-trip", "readmit",
	"degrade", "dump", "job-queue", "job-admit", "job-cancel",
	"calib-drift", "shed", "deadline", "retry", "fabric-reset",
	"slo-burn", "util-sample",
}

// String names the type the way the dump format and exporters do.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// MarshalJSON encodes the type as its name.
func (t Type) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// Domain is the clock domain of an event's cycle count.
type Domain uint8

const (
	// DomainNone marks software-side events with no cycle count.
	DomainNone Domain = iota
	// DomainFabric is the 200 MHz domain (QPI endpoint, String Reader,
	// arbiter, Output Collector).
	DomainFabric
	// DomainPU is the 400 MHz Processing Unit domain.
	DomainPU
)

// Clock returns the sim clock of the domain (zero clock for DomainNone).
func (d Domain) Clock() sim.Clock {
	switch d {
	case DomainFabric:
		return sim.FabricClock
	case DomainPU:
		return sim.PUClock
	}
	return sim.Clock{}
}

// String names the domain.
func (d Domain) String() string {
	switch d {
	case DomainFabric:
		return "fabric"
	case DomainPU:
		return "pu"
	}
	return "none"
}

// MarshalJSON encodes the domain as its name.
func (d Domain) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// Event is one flight-recorder record. The zero value of optional fields
// means "not applicable" (Engine and Unit use -1 for that instead, so
// engine 0 is representable).
type Event struct {
	// Seq is the global sequence number (monotonic, never reused).
	Seq uint64 `json:"seq"`
	// Type is the event kind.
	Type Type `json:"type"`
	// WallNS is host wall time in Unix nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Sim is the simulated timestamp on the recorder's continuous
	// timeline (picoseconds).
	Sim sim.Time `json:"sim_ps"`
	// Dur is the simulated duration of window events (0 for instants).
	Dur sim.Time `json:"dur_ps,omitempty"`
	// Domain and Cycles carry the hardware cycle count of window events;
	// Dur == Domain.Clock().Cycles(Cycles) for single-domain windows.
	Domain Domain `json:"domain,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
	// Engine is the Regex Engine id (-1: not engine-scoped).
	Engine int `json:"engine"`
	// Unit is the Processing Unit id within the engine (-1: n/a).
	Unit int `json:"unit"`
	// Job is the HAL's job sequence number (0: n/a).
	Job int64 `json:"job,omitempty"`
	// Arg is a type-specific quantity: bytes for job events, cache lines
	// for grant bursts.
	Arg int64 `json:"arg,omitempty"`
	// Vals is a type-specific vector: the topdown bucket shares in basis
	// points for util-sample events. Written once at record time, never
	// mutated afterwards.
	Vals []int64 `json:"vals,omitempty"`
	// Note is a short label: the fault class, the degradation cause.
	Note string `json:"note,omitempty"`
}

// DefaultCapacity is the default ring size: at ~128 B per event a full
// recorder holds the last ~32k events in ~4 MB, several drain batches of
// the heaviest experiment.
const DefaultCapacity = 32768

// Recorder is the bounded ring buffer. All methods are safe for concurrent
// use and nil-safe, so an unwired component records into the void for the
// cost of one branch.
type Recorder struct {
	mu sync.Mutex
	// buf holds the retained window. It grows on demand up to capacity
	// slots — a System that records little pins little — and from then on
	// is a ring whose oldest slot is next.
	buf      []Event
	capacity int
	next     int    // slot the next event overwrites once buf is full
	head     uint64 // total events ever recorded (the next sequence number)
	dropped  uint64 // events overwritten by the ring
	sink     io.Writer
	dumps    uint64
}

// New creates a recorder holding the most recent capacity events
// (DefaultCapacity when <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Record appends an event, stamping its sequence number and — when the
// caller left it zero — its wall timestamp. Oldest events are overwritten
// when the ring is full.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.WallNS == 0 {
		e.WallNS = time.Now().UnixNano()
	}
	r.mu.Lock()
	e.Seq = r.head
	r.head++
	if len(r.buf) < r.capacity {
		r.buf = append(GrowRing(r.buf, r.capacity), e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.capacity
		r.dropped++
	}
	r.mu.Unlock()
}

// GrowRing returns buf with room for one more element, doubling a full
// backing array but never past capacity slots (append's own growth would
// overshoot the bound). The caller guarantees len(buf) < capacity.
func GrowRing[T any](buf []T, capacity int) []T {
	if len(buf) < cap(buf) {
		return buf
	}
	grown := make([]T, len(buf), min(max(2*cap(buf), 64), capacity))
	copy(grown, buf)
	return grown
}

// Window returns the retained events in recording order (oldest first).
func (r *Recorder) Window() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	return append(append(out, r.buf[r.next:]...), r.buf[:r.next]...)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards the retained window (sequence numbering continues). The
// backing array is kept, so refilling allocates nothing.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf, r.next = r.buf[:0], 0
	r.mu.Unlock()
}

// SetSink installs the writer degrade dumps go to (nil disables them).
// CLIs point it at stderr or a forensics file.
func (r *Recorder) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = w
	r.mu.Unlock()
}

// Dumps returns how many forensic dumps the recorder has emitted.
func (r *Recorder) Dumps() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps
}

// DumpOnDegrade is the black-box hook: the fault path calls it when a query
// degrades to the software operator, and the recorder writes its whole
// window to the configured sink (no-op without one).
func (r *Recorder) DumpOnDegrade(cause string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	sink := r.sink
	r.dumps++
	r.mu.Unlock()
	if sink == nil {
		return
	}
	fmt.Fprintf(sink, "flightrec: query degraded (%s); dumping recorder window\n", cause)
	r.WriteText(sink)
}

// WriteText renders the window as one line per event: sequence, wall
// offset from the first retained event, simulated timestamp, and the
// type-specific payload.
func (r *Recorder) WriteText(w io.Writer) {
	events := r.Window()
	if len(events) == 0 {
		fmt.Fprintln(w, "flightrec: empty window")
		return
	}
	base := events[0].WallNS
	fmt.Fprintf(w, "flightrec: %d event(s) retained, %d dropped\n", len(events), r.Dropped())
	for _, e := range events {
		fmt.Fprintln(w, formatEvent(e, base))
	}
}

// formatEvent renders one event line relative to the wall base.
func formatEvent(e Event, baseWallNS int64) string {
	s := fmt.Sprintf("%6d +%-12v %-13s sim=%-12v", e.Seq,
		time.Duration(e.WallNS-baseWallNS).Round(time.Microsecond),
		e.Type, e.Sim)
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur)
	}
	if e.Engine >= 0 {
		s += fmt.Sprintf(" e%d", e.Engine)
	}
	if e.Unit >= 0 {
		s += fmt.Sprintf(" pu%d", e.Unit)
	}
	if e.Job > 0 {
		s += fmt.Sprintf(" job=%d", e.Job)
	}
	if e.Cycles > 0 {
		s += fmt.Sprintf(" cycles=%d@%s", e.Cycles, e.Domain)
	}
	if e.Arg > 0 {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}
