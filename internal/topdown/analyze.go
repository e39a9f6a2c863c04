package topdown

import (
	"fmt"

	"doppiodb/internal/sim"
)

// Verdict names the dominant reason a query spent its time.
type Verdict string

// The five verdicts of the per-query bottleneck analyzer.
const (
	// MemoryBound: the engines spent more cycles waiting on the QPI link
	// (grants, phase turnarounds, result drain) than computing, or the
	// link itself was saturated — adding engines will not help (§7.3).
	MemoryBound Verdict = "memory-bound"
	// ComputeBound: the engines' PU compute dominated and the link had
	// headroom — another engine would raise throughput.
	ComputeBound Verdict = "compute-bound"
	// ConfigBound: reconfiguration (config generation + per-job engine
	// parametrization) dominated the query.
	ConfigBound Verdict = "config-bound"
	// QueueBound: the query mostly waited for fabric admission.
	QueueBound Verdict = "queue-bound"
	// SoftwareBound: the CPU-side work (scan, UDF, software regex or a
	// degraded fallback) dominated.
	SoftwareBound Verdict = "software-bound"
)

// LinkSaturationPct is the QPI busy share above which the fabric counts
// as saturated regardless of the busy/stall split: a lone engine tops out
// near 90% link busy (5.89 of 6.5 GB/s), two or more pin it at ~99%.
const LinkSaturationPct = 97.0

// Attribution is the analyzer's record, stamped onto the EXPLAIN ANALYZE
// record and the wide-event query log: the caller fills the query's phase
// times and job buckets in, Analyze derives the verdict and the two
// percentages from them. Deterministic: every field derives from simulated
// time via integer math.
type Attribution struct {
	Verdict Verdict `json:"verdict"`
	// DominantPct is the dominant bucket's share in percent: of engine
	// cycles for memory/compute verdicts, of query time otherwise.
	DominantPct float64 `json:"dominant_pct"`
	// LinkBusyPct is the QPI link's busy share of the query's hardware
	// window.
	LinkBusyPct float64 `json:"link_busy_pct"`
	// Software is the CPU-side time: scan setup, UDF, software regex
	// (hybrid post-pass or full fallback) and retry backoff.
	Software sim.Time `json:"software_ps"`
	// ConfigGen is the regex→config-vector generation time. Zero when the
	// compiled-config cache hit — the golden "cached rerun" signature.
	ConfigGen sim.Time `json:"config_gen_ps"`
	// Queue is the fabric admission wait.
	Queue sim.Time `json:"queue_ps"`
	// Hardware is the admission→completion window of the slowest job.
	Hardware sim.Time `json:"hardware_ps"`
	// Total is the query's end-to-end simulated time.
	Total sim.Time `json:"total_ps"`
	// Buckets is the engine-cycle classification summed over the query's
	// jobs (the per-job ledgers' buckets).
	Buckets Buckets `json:"buckets"`
}

// Analyze folds a query's cycle accounting into a bottleneck verdict. a
// holds the phase times and job buckets; placement is the executed plan
// ("fpga", "hybrid" or "software"), degraded marks a hardware query that
// fell back to software, and linkBusy is the link service time of the
// query's own grants.
func Analyze(placement string, degraded bool, linkBusy sim.Time, a Attribution) *Attribution {
	if a.Hardware > 0 {
		a.LinkBusyPct = Pct(linkBusy, a.Hardware)
	}
	if placement == "software" || degraded || a.Hardware == 0 {
		a.Verdict = SoftwareBound
		a.DominantPct = Pct(a.Software, a.Total)
		return &a
	}
	// Reconfiguration cost is generation (software) plus the per-job
	// engine parametrization the hardware charged.
	config := a.ConfigGen + a.Buckets.Config
	// The dominant component of the query total decides the verdict
	// family; ties go to hardware so the cycle buckets break them.
	switch {
	case a.Queue > a.Hardware && a.Queue >= a.Software && a.Queue >= config:
		a.Verdict = QueueBound
		a.DominantPct = Pct(a.Queue, a.Total)
	case a.Software > a.Hardware && a.Software >= config:
		a.Verdict = SoftwareBound
		a.DominantPct = Pct(a.Software, a.Total)
	case config > a.Hardware:
		a.Verdict = ConfigBound
		a.DominantPct = Pct(config, a.Total)
	default:
		active := a.Buckets.Active()
		stalled := a.Buckets.Stalled()
		if stalled > a.Buckets.Busy || a.LinkBusyPct >= LinkSaturationPct {
			a.Verdict = MemoryBound
			a.DominantPct = Pct(stalled, active)
		} else {
			a.Verdict = ComputeBound
			a.DominantPct = Pct(a.Buckets.Busy, active)
		}
	}
	return &a
}

// Line renders the attribution as a single human-readable line (the form
// EXPLAIN ANALYZE and the CLIs print).
func (a *Attribution) Line() string {
	switch a.Verdict {
	case MemoryBound:
		return fmt.Sprintf("bottleneck: memory-bound (stalled %.2f%% of engine cycles; qpi %.2f%% busy)",
			a.DominantPct, a.LinkBusyPct)
	case ComputeBound:
		return fmt.Sprintf("bottleneck: compute-bound (busy %.2f%% of engine cycles; qpi %.2f%% busy)",
			a.DominantPct, a.LinkBusyPct)
	case ConfigBound:
		return fmt.Sprintf("bottleneck: config-bound (reconfiguration %.2f%% of query time)", a.DominantPct)
	case QueueBound:
		return fmt.Sprintf("bottleneck: queue-bound (admission wait %.2f%% of query time)", a.DominantPct)
	default:
		return fmt.Sprintf("bottleneck: software-bound (cpu path %.2f%% of query time)", a.DominantPct)
	}
}
