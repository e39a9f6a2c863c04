package core

import (
	"doppiodb/internal/bat"
	"doppiodb/internal/hal"
	"doppiodb/internal/perf"
	"doppiodb/internal/sim"
	"doppiodb/internal/token"
)

// This file implements the paper's §9 proposal: "being able to provide a
// cost function for the UDF to the query optimizer could be beneficial for
// overall performance ... The query optimizer will then be able to
// dynamically decide where an operator with both a hardware and software
// implementation will be executed."
//
// The hardware cost function is trivially precise — property II of the PU
// design ("it consumes the input at constant rate regardless of pattern
// complexity or length which makes its cost function very simple, an
// important aspect for query planning", §5). The software cost is estimated
// by probing the backtracker on a small sample of synthesized rows.
//
// Both are arithmetic over a prepared pattern (prepared.go): the resource
// demand, the capacity verdict, the hybrid split and the probe's step count
// are facts about the pattern, computed once per config-cache entry, so a
// repeat query pays only for what depends on the query — the input volume
// and the FPGA's current load.

// Placement says where the optimizer decided to run a predicate.
type Placement int

// Placements.
const (
	// PlaceFPGA runs the predicate on the regex engines.
	PlaceFPGA Placement = iota
	// PlaceHybrid pre-filters on the FPGA and post-processes on the CPU.
	PlaceHybrid
	// PlaceSoftware runs the predicate on the CPU (it does not fit the
	// device, or software is genuinely cheaper).
	PlaceSoftware
)

func (p Placement) String() string {
	switch p {
	case PlaceFPGA:
		return "fpga"
	case PlaceHybrid:
		return "hybrid"
	case PlaceSoftware:
		return "software"
	}
	return "unknown"
}

// CostEstimate is the optimizer-facing cost function of the operator. The
// hardware prediction is itemized so the explain layer can compare each
// term against the runtime's per-job Completion records, not just the sum.
type CostEstimate struct {
	Placement Placement
	// HWTime / SWTime are the predicted response times of the two
	// implementations for the given input volume.
	HWTime, SWTime sim.Time
	// QueueDelay is the predicted wait for a free engine given the
	// FPGA's current load (§9: "the query optimizer has no knowledge
	// about the capacity or current load on the FPGA" — here it does).
	QueueDelay sim.Time
	// ScanBytes is the predicted input volume crossing QPI.
	ScanBytes int64
	// QPITransfer is the predicted link service time of that volume at
	// the 6.5 GB/s QPI rate; EngineBusy adds the engine-side
	// parametrization on top (admission → completion on the engine).
	QPITransfer, EngineBusy sim.Time
	// Fixed bundles the per-query constants: database handoff, UDF
	// software part, configuration generation, HAL job creation.
	Fixed sim.Time
	// Fits reports whether the whole expression fits the deployed
	// engines; HWPart/SWPart record the hybrid split when it exists.
	Fits           bool
	HWPart, SWPart string
	// States/Chars are the expression's resource demand.
	States, Chars int
}

// probeRows bounds the software probe.
const probeRows = 512

// EstimateCost predicts HUDF vs software response time for evaluating
// pattern over n strings of avgLen bytes, given `queued` bytes already
// enqueued on the FPGA, and picks a placement. It prepares the pattern
// outside the config cache; Exec prices the artifact its lookup returned.
func (s *System) EstimateCost(pattern string, n int, avgLen int, queued int64) (*CostEstimate, error) {
	p, err := preparePattern(pattern, token.Options{}, s.Device.Deployment.Limits)
	if err != nil {
		return nil, err
	}
	return s.estimate(p, n, avgLen, queued)
}

// estimate is the cost function proper: arithmetic over a prepared pattern.
func (s *System) estimate(p *prepared, n int, avgLen int, queued int64) (*CostEstimate, error) {
	est := &CostEstimate{
		States: p.prog.NumStates(),
		Chars:  p.prog.NumChars(),
		Fits:   p.fits,
	}

	// Hardware: volume / QPI bandwidth + fixed overheads; precise by
	// construction. The terms are kept apart so EXPLAIN can show which
	// one a misprediction lives in.
	volume := float64(n) * float64(bat.EntryStride(avgLen)+bat.OffsetWidth+2)
	est.ScanBytes = int64(volume)
	est.QPITransfer = sim.FromSeconds(volume / 6.5e9)
	est.EngineBusy = est.QPITransfer + hal.ParametrizeTime
	est.Fixed = s.Model.DatabaseOverhead + s.Model.UDFOverhead +
		s.Model.ConfigGenTime + hal.CreateTime
	est.HWTime = est.EngineBusy + est.Fixed
	est.QueueDelay = sim.FromSeconds(float64(queued) / 6.5e9)

	// Software: the backtracker's steps over a probe of synthesized rows
	// of the same length, scaled to n rows under the calibrated model.
	rows := max(min(n, probeRows), 1)
	steps, err := p.probeSteps(avgLen, s.probeInput(avgLen)[:rows])
	if err != nil {
		return nil, err
	}
	w := perf.Work{
		Rows:      n,
		RegexRows: n,
		Steps:     steps * uint64(n) / uint64(rows),
	}
	est.SWTime = s.Model.MonetDBScan(w, true)

	// Placement: prefer the FPGA when it wins even after queueing (with
	// this platform's sub-millisecond offload overhead it nearly always
	// does — Fig. 10); fall back to hybrid when the expression does not
	// fit; software when it cannot be split either, or when the FPGA's
	// queued load erases the win.
	switch {
	case p.fits && est.HWTime+est.QueueDelay <= est.SWTime:
		est.Placement = PlaceFPGA
	case p.fits || p.splitErr != nil:
		est.Placement = PlaceSoftware
	default:
		est.Placement = PlaceHybrid
		est.HWPart, est.SWPart = p.hwPat, p.swPat
	}
	return est, nil
}

// QueuedBytes reports the FPGA's current load as the total data volume of
// jobs the device runtime has not completed yet — submitted, waiting in
// the admission backlog, or in the running arbitration round — the
// "current load on the FPGA" the paper's optimizer lacks. EstimateCost
// turns it into QueueDelay at link rate.
func (s *System) QueuedBytes() int64 {
	// The HAL tracks per-engine volume; expose the total.
	return s.HAL.QueuedBytes()
}
