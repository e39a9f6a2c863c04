// The wide-event query log: one canonical structured record per query —
// who ran it, where the planner placed it, how every simulated phase
// priced out, how much data moved, and how it ended (completed, degraded,
// shed, deadline, canceled, failed). The log is a bounded ring with
// tail-biased sampling: notable events (anything but a fast clean
// completion) are always kept, the fast happy path is kept one-in-N so a
// high-throughput run cannot wash the interesting tail out of the window.
// Sampling decisions derive from deterministic event counters — never the
// wall clock — so identical runs keep identical events and the exported
// JSONL is bit-identical, per the repo's simulation contract.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"doppiodb/internal/flightrec"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/topdown"
)

// Outcome classifies how a query ended. Exactly one outcome per query.
type Outcome string

const (
	// OutcomeCompleted is a clean hardware/hybrid/software completion.
	OutcomeCompleted Outcome = "completed"
	// OutcomeDegraded completed, but on the software fallback after the
	// hardware path faulted beyond its retries.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeShed was rejected by the admission layer at a backlog cap.
	OutcomeShed Outcome = "shed"
	// OutcomeDeadline was refused or aborted by the deadline machinery
	// (simulated budget or context deadline).
	OutcomeDeadline Outcome = "deadline"
	// OutcomeCanceled was aborted by its caller's context.
	OutcomeCanceled Outcome = "canceled"
	// OutcomeFailed is any other error (compile errors, closed runtime).
	OutcomeFailed Outcome = "failed"
)

// IsError reports whether the outcome counts against the availability SLI
// (degraded + shed + deadline + failed over submitted; a caller canceling
// its own query is not the system's error).
func (o Outcome) IsError() bool {
	switch o {
	case OutcomeDegraded, OutcomeShed, OutcomeDeadline, OutcomeFailed:
		return true
	}
	return false
}

// Event is the wide query record. Every duration is simulated nanoseconds;
// SimNS stamps the completion on the device runtime's continuous timeline.
// There is deliberately no wall-clock field: two identical runs must
// produce byte-identical JSONL.
type Event struct {
	// Seq is the log-assigned submission sequence number (1-based).
	Seq uint64 `json:"seq"`
	// SimNS is the simulated completion timestamp.
	SimNS int64 `json:"sim_ns"`
	// Session and Query identify the issuing SQL session and its query
	// counter (empty for direct core.Exec callers).
	Session string `json:"session,omitempty"`
	Query   string `json:"query,omitempty"`
	// Pattern is the regex/LIKE predicate the query evaluated.
	Pattern string `json:"pattern"`
	// Placement is the plan that ran: fpga, hybrid, or software.
	Placement string `json:"placement"`
	// Outcome says how the query ended; Cause names the fault or error
	// behind a non-completed outcome.
	Outcome Outcome `json:"outcome"`
	Cause   string  `json:"cause,omitempty"`
	// Rows and Matches size the scan and its result.
	Rows    int `json:"rows"`
	Matches int `json:"matches"`
	// Bytes is the QPI traffic attributed to this query's jobs alone.
	Bytes int64 `json:"bytes_scanned"`
	// Jobs is the engine set: how many partitions the runtime dispatched.
	Jobs int `json:"jobs,omitempty"`
	// Hybrid marks split execution (FPGA prefix + software tail).
	Hybrid bool `json:"hybrid,omitempty"`
	// PlanCached marks a query answered from a plan-cache hit (compiled
	// config vector reused, config-gen skipped).
	PlanCached bool `json:"plan_cache_hit,omitempty"`
	// Shared marks a follower query whose scan rode a coalesced job group.
	Shared bool `json:"shared_scan,omitempty"`
	// Retries and BackoffNS account the query-level retry loop.
	Retries   int   `json:"retries,omitempty"`
	BackoffNS int64 `json:"retry_backoff_ns,omitempty"`
	// BudgetNS is the simulated deadline budget the query carried.
	BudgetNS int64 `json:"budget_ns,omitempty"`
	// QueueNS is the backlog wait, TotalNS the full simulated response
	// time, Phases the per-phase breakdown (Figure 10's buckets).
	QueueNS int64            `json:"queue_wait_ns,omitempty"`
	TotalNS int64            `json:"total_ns"`
	Phases  map[string]int64 `json:"phases,omitempty"`
	// Topdown is the query's bottleneck attribution (verdict plus the
	// cycle buckets behind it), when the core layer produced one.
	Topdown *topdown.Attribution `json:"topdown,omitempty"`
	// Sampled marks a fast happy-path event kept by the one-in-N sampler
	// (notable events are always kept and leave this false).
	Sampled bool `json:"sampled,omitempty"`
}

// LogOptions tune the ring and its sampler.
type LogOptions struct {
	// Capacity bounds the ring (default 4096 events).
	Capacity int
	// SampleEvery keeps one in N fast happy-path events (default 16;
	// 1 keeps everything).
	SampleEvery int
	// SlowNS marks a completion as notable (always kept) when its total
	// simulated time reaches this threshold. Default: the SLO latency
	// target when the log is wired through an Observer, else unset.
	SlowNS int64
}

func (o LogOptions) withDefaults() LogOptions {
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 16
	}
	return o
}

// LogStats summarizes the log's admission accounting.
type LogStats struct {
	// Submitted counts every event offered to the log; Kept the events
	// admitted to the ring (notable + sampled); SampledOut the fast
	// happy-path events the sampler dropped; Evicted the admitted events
	// the ring has since overwritten.
	Submitted  uint64 `json:"submitted"`
	Kept       uint64 `json:"kept"`
	Notable    uint64 `json:"notable"`
	SampledOut uint64 `json:"sampled_out"`
	Evicted    uint64 `json:"evicted"`
	// ByOutcome counts every submitted event per outcome (pre-sampling).
	ByOutcome map[Outcome]uint64 `json:"by_outcome"`
}

// Log is the bounded wide-event ring. All methods are nil-safe.
type Log struct {
	mu   sync.Mutex
	opts LogOptions
	// buf grows on demand up to opts.Capacity events, then is a ring whose
	// oldest slot is next.
	buf  []Event
	next int

	seq        uint64 // submission counter (assigns Event.Seq)
	fastSeen   uint64 // fast happy-path events seen, drives the sampler
	kept       uint64
	notable    uint64
	sampledOut uint64
	byOutcome  map[Outcome]uint64

	tel *telemetry.Registry
}

// NewLog builds a query log.
func NewLog(opts LogOptions) *Log {
	opts = opts.withDefaults()
	return &Log{opts: opts, byOutcome: make(map[Outcome]uint64)}
}

// SetTelemetry mirrors the admission accounting into querylog.* counters.
func (l *Log) SetTelemetry(tel *telemetry.Registry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.tel = tel
	l.mu.Unlock()
}

// setSlowNS wires the always-keep latency threshold (Observer binds it to
// the SLO latency target so every SLO-violating query survives sampling).
func (l *Log) setSlowNS(ns int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.opts.SlowNS = ns
	l.mu.Unlock()
}

// notableEvent reports whether ev must bypass sampling: every outcome but
// a clean completion, any retried or hybrid query, and completions at or
// over the slow threshold.
func (l *Log) notableEvent(ev *Event) bool {
	if ev.Outcome != OutcomeCompleted || ev.Retries > 0 || ev.Hybrid {
		return true
	}
	return l.opts.SlowNS > 0 && ev.TotalNS >= l.opts.SlowNS
}

// Record offers one event to the log. The log assigns Seq (submission
// order); tail-biased sampling decides whether the event enters the ring.
func (l *Log) Record(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq = l.seq
	l.byOutcome[ev.Outcome]++
	l.tel.Counter("querylog.submitted").Inc()
	switch {
	case l.notableEvent(&ev):
		l.notable++
	default:
		l.fastSeen++
		if (l.fastSeen-1)%uint64(l.opts.SampleEvery) != 0 {
			l.sampledOut++
			l.tel.Counter("querylog.sampled_out").Inc()
			return
		}
		ev.Sampled = true
	}
	l.kept++
	l.tel.Counter("querylog.kept").Inc()
	if len(l.buf) < l.opts.Capacity {
		l.buf = append(flightrec.GrowRing(l.buf, l.opts.Capacity), ev)
		return
	}
	l.buf[l.next] = ev
	l.next = (l.next + 1) % l.opts.Capacity
}

// Stats returns the admission accounting.
func (l *Log) Stats() LogStats {
	if l == nil {
		return LogStats{ByOutcome: map[Outcome]uint64{}}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LogStats{
		Submitted:  l.seq,
		Kept:       l.kept,
		Notable:    l.notable,
		SampledOut: l.sampledOut,
		ByOutcome:  make(map[Outcome]uint64, len(l.byOutcome)),
	}
	if n := uint64(l.opts.Capacity); l.kept > n {
		s.Evicted = l.kept - n
	}
	for k, v := range l.byOutcome {
		s.ByOutcome[k] = v
	}
	return s
}

// Window returns up to n of the most recent retained events, oldest first
// (n ≤ 0: the whole window).
func (l *Log) Window(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.buf)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := size - n; i < size; i++ {
		out = append(out, l.buf[(l.next+i)%size])
	}
	return out
}

// WriteJSONL exports up to n of the most recent retained events as JSON
// Lines, oldest first (n ≤ 0: the whole window). Output is deterministic:
// map keys are sorted by encoding/json and no field carries wall time.
func (l *Log) WriteJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, ev := range l.Window(n) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders up to n recent events as the compact one-line-per-
// query table \querylog prints.
func (l *Log) WriteText(w io.Writer, n int) {
	evs := l.Window(n)
	if len(evs) == 0 {
		fmt.Fprintln(w, "query log: no events retained")
		return
	}
	st := l.Stats()
	fmt.Fprintf(w, "query log: %d submitted, %d kept (%d notable, %d sampled out, %d evicted)\n",
		st.Submitted, st.Kept, st.Notable, st.SampledOut, st.Evicted)
	fmt.Fprintf(w, "%6s  %-10s  %-9s  %-9s  %8s  %12s  %10s  %s\n",
		"seq", "session", "placement", "outcome", "rows", "total", "bytes", "pattern")
	for _, ev := range evs {
		sess := ev.Session
		if sess == "" {
			sess = "-"
		} else if ev.Query != "" {
			sess = ev.Session + "#" + ev.Query
		}
		note := ""
		if ev.Retries > 0 {
			note = fmt.Sprintf(" [retries %d]", ev.Retries)
		}
		if ev.Sampled {
			note += " [sampled]"
		}
		pat := ev.Pattern
		if len(pat) > 32 {
			pat = pat[:29] + "..."
		}
		fmt.Fprintf(w, "%6d  %-10s  %-9s  %-9s  %8d  %10.3fms  %10d  %s%s\n",
			ev.Seq, sess, ev.Placement, ev.Outcome, ev.Rows,
			float64(ev.TotalNS)/1e6, ev.Bytes, pat, note)
	}
}
