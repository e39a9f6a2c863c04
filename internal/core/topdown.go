package core

import (
	"doppiodb/internal/topdown"
)

// attributeQuery folds a finished query's phase breakdown and hardware
// cycle buckets into the topdown bottleneck attribution, and counts the
// verdict in telemetry. The CPU-side term spans every software phase:
// scan setup, the UDF's software half, HAL job creation, the hybrid
// post-pass (or degraded fallback) and retry backoff. Config generation
// stays its own term — it is the component a compiled-config cache hit
// removes, which the golden cached-rerun signature pins to zero.
func (s *System) attributeQuery(placement string, res *Result) *topdown.Attribution {
	bd := res.Breakdown
	software := bd.Get(PhaseDatabase) + bd.Get(PhaseUDF) + bd.Get(PhaseHAL) +
		bd.Get(PhaseSoftware) + bd.Get(PhaseRetry)
	a := topdown.Analyze(placement, res.Degraded, res.HW.LinkBusy, topdown.Attribution{
		Software:  software,
		ConfigGen: bd.Get(PhaseConfigGen),
		Queue:     bd.Get(PhaseQueue),
		Hardware:  bd.Get(PhaseHardware),
		Total:     res.Total(),
		Buckets:   res.HW.Buckets,
	})
	s.Tel.Counter("topdown.verdict." + string(a.Verdict)).Inc()
	return a
}
