package core

import (
	"fmt"

	"doppiodb/internal/bat"
	"doppiodb/internal/explain"
	"doppiodb/internal/obs"
	"doppiodb/internal/perf"
	"doppiodb/internal/sim"
	"doppiodb/internal/token"
	"doppiodb/internal/topdown"
)

// This file bridges the §9 cost model to the explain layer: ExplainCost
// turns one estimate into a full decision record — every candidate
// plan with its itemized predicted breakdown and the chosen plan's reason —
// and finishRecord fills the actual figures in from the runtime's per-job
// Completion accounting after execution.

// ns converts a simulated duration to the integer nanoseconds the explain
// records carry.
func ns(t sim.Time) int64 { return int64(t / sim.Nanosecond) }

// ExplainCost runs the cost model for a predicate and returns the full
// decision record: candidate plans (fpga, hybrid, software), itemized
// predicted costs, and the chosen placement with its reason. It is the SQL
// layer's placement advisor (rec.Offloads() is the advice; the advisor
// counters live here) and binds the record to the system's calibration
// auditor so Finish feeds the rolling error statistics. Like EstimateCost
// it prepares the pattern outside the config cache.
func (s *System) ExplainCost(pattern string, rows, avgLen int) (*explain.Record, error) {
	p, err := preparePattern(pattern, token.Options{}, s.Device.Deployment.Limits)
	if err != nil {
		s.Tel.Counter("core.advisor.decisions").Inc()
		s.Tel.Counter("core.advisor.errors").Inc()
		return nil, err
	}
	return s.explainPrepared(p, rows, avgLen)
}

// explainPrepared is ExplainCost over a prepared pattern.
func (s *System) explainPrepared(p *prepared, rows, avgLen int) (*explain.Record, error) {
	s.Tel.Counter("core.advisor.decisions").Inc()
	queued := s.QueuedBytes()
	est, err := s.estimate(p, rows, avgLen, queued)
	if err != nil {
		s.Tel.Counter("core.advisor.errors").Inc()
		return nil, err
	}
	s.Tel.Counter("core.advisor.predicted_hw_ns").Add(
		int64((est.HWTime + est.QueueDelay) / sim.Nanosecond))
	s.Tel.Counter("core.advisor.predicted_sw_ns").Add(
		int64(est.SWTime / sim.Nanosecond))
	rec := s.buildRecord(p.pattern, rows, avgLen, queued, est)
	if rec.Offloads() {
		s.Tel.Counter("core.advisor.offloaded").Inc()
	}
	rec.SetAuditor(s.Audit)
	return rec, nil
}

// buildRecord translates a CostEstimate into the explain layer's candidate
// set. The hardware cost vector is shared by the fpga and hybrid candidates
// — the model prices the offloaded scan; a hybrid's software tail runs only
// on pre-selected rows and is not priced up front.
func (s *System) buildRecord(pattern string, rows, avgLen int, queued int64, est *CostEstimate) *explain.Record {
	hwCost := explain.Cost{
		ScanBytes:     est.ScanBytes,
		QPITransferNS: ns(est.QPITransfer),
		EngineBusyNS:  ns(est.EngineBusy),
		QueueDelayNS:  ns(est.QueueDelay),
		FixedNS:       ns(est.Fixed),
		TotalNS:       ns(est.HWTime + est.QueueDelay),
	}
	lim := s.Device.Deployment.Limits
	rec := &explain.Record{
		Pattern:     pattern,
		Rows:        rows,
		AvgLen:      avgLen,
		QueuedBytes: queued,
		States:      est.States,
		Chars:       est.Chars,
	}

	fpga := explain.Candidate{Placement: "fpga", Feasible: est.Fits}
	if est.Fits {
		fpga.Reason = "whole expression fits the deployed engines"
		fpga.Cost = hwCost
	} else {
		fpga.Reason = fmt.Sprintf("needs %d states / %d chars; deployed engines hold %d/%d",
			est.States, est.Chars, lim.MaxStates, lim.MaxChars)
	}
	rec.Candidates = append(rec.Candidates, fpga)

	hybrid := explain.Candidate{Placement: "hybrid"}
	switch {
	case est.Fits:
		hybrid.Reason = "expression fits the device whole; no split needed"
	case est.HWPart != "":
		hybrid.Feasible = true
		hybrid.Reason = "prefix pre-filters on the FPGA; tail post-processed on matching rows only (tail cost not priced up front)"
		hybrid.HWPart, hybrid.SWPart = est.HWPart, est.SWPart
		hybrid.Cost = hwCost
	default:
		hybrid.Reason = "no top-level `.*` split point"
	}
	rec.Candidates = append(rec.Candidates, hybrid)

	rec.Candidates = append(rec.Candidates, explain.Candidate{
		Placement: "software",
		Feasible:  true,
		Reason:    "CPU backtracker (probe-calibrated)",
		Cost: explain.Cost{
			SoftwareNS: ns(est.SWTime),
			TotalNS:    ns(est.SWTime),
		},
	})

	rec.Chosen = est.Placement.String()
	switch est.Placement {
	case PlaceFPGA:
		rec.Reason = fmt.Sprintf("hardware wins: predicted %v (incl. %v queue delay) ≤ software %v",
			est.HWTime+est.QueueDelay, est.QueueDelay, est.SWTime)
	case PlaceHybrid:
		rec.Reason = "expression exceeds device capacity; split at top-level `.*` and pre-filter on the FPGA"
	default:
		if est.Fits {
			rec.Reason = fmt.Sprintf("software wins: predicted hardware %v (incl. %v queue delay) > software %v",
				est.HWTime+est.QueueDelay, est.QueueDelay, est.SWTime)
		} else {
			rec.Reason = "expression exceeds device capacity and has no split point"
		}
	}
	return rec
}

// recordForExec builds a decision record for a direct Exec call (no record
// came down the context from the SQL layer). Estimation failures don't fail
// the query — they just leave it unexplained.
func (s *System) recordForExec(col *bat.Strings, p *prepared) *explain.Record {
	avgLen := 64
	if n := col.Count(); n > 0 {
		if b := col.PayloadBytes(); b > 0 {
			avgLen = b / n
		}
	}
	rec, err := s.explainPrepared(p, col.Count(), avgLen)
	if err != nil {
		return nil
	}
	return rec
}

// finishRecord maps a finished query's accounting onto the explain layer's
// cost terms: the runtime's per-job Completion records (HWStats) provide
// the hardware terms, the phase breakdown the software and fixed terms.
func finishRecord(rec *explain.Record, res *Result) {
	if rec == nil || res == nil {
		return
	}
	bd := res.Breakdown
	fixed := bd.Get(PhaseDatabase) + bd.Get(PhaseUDF) +
		bd.Get(PhaseConfigGen) + bd.Get(PhaseHAL)
	rec.Degraded = res.Degraded
	rec.DegradedCause = res.DegradedCause
	rec.Finish(explain.Cost{
		ScanBytes:     res.HW.Bytes,
		QPITransferNS: ns(res.HW.LinkBusy),
		EngineBusyNS:  ns(res.HW.Time),
		QueueDelayNS:  ns(res.HW.QueueWait),
		SoftwareNS:    ns(bd.Get(PhaseSoftware)),
		FixedNS:       ns(fixed),
		TotalNS:       ns(res.Total()),
	})
}

// FinishSoftware closes a decision record for a predicate the engine kept
// in software (the cost model's software-wins outcome): the realized cost
// is the calibrated scan model over the work actually performed. The
// query still lands in the wide-event log — the software placement class
// has SLIs too.
func (s *System) FinishSoftware(rec *explain.Record, w perf.Work) {
	if rec == nil {
		return
	}
	t := s.Model.MonetDBScan(w, true)
	rec.Finish(explain.Cost{SoftwareNS: ns(t), TotalNS: ns(t)})
	rec.Topdown = topdown.Analyze("software", false, 0, topdown.Attribution{Software: t, Total: t})
	s.Tel.Counter("topdown.verdict." + string(rec.Topdown.Verdict)).Inc()
	s.Obs.ObserveQuery(obs.Event{
		SimNS:      ns(s.HAL.SimEpoch()),
		Pattern:    rec.Pattern,
		Placement:  "software",
		Outcome:    obs.OutcomeCompleted,
		Rows:       rec.Rows,
		TotalNS:    ns(t),
		PlanCached: rec.PlanCacheHit,
		Topdown:    rec.Topdown,
	})
}
