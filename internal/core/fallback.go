// Graceful degradation: when the FPGA job path reports a hardware fault
// the HAL could not retry away (wedged engines, exhausted resubmissions,
// every engine quarantined), the HUDF keeps answering queries by running
// the pure-software regex operator over the column and flagging the result
// Degraded. Correctness is preserved — the software engine computes the
// same match positions — only latency degrades, which is exactly the
// contract the robustness layer promises: errors or degraded latency,
// never corruption or hangs.
package core

import (
	"context"

	"doppiodb/internal/bat"
	"doppiodb/internal/perf"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// execSoftware evaluates the full pattern on the CPU with the backtracking
// engine (the PCRE stand-in), producing the same result BAT shape as the
// hardware path. cause is the fault that forced the degradation. ctx is
// honored between row chunks so a canceled query stops burning CPU.
func (s *System) execSoftware(ctx context.Context, col *bat.Strings, pp *prepared, parent *telemetry.Span, cause error) (*Result, error) {
	sp := parent.StartChild("software-fallback")
	bt, err := pp.fallbackMatcher()
	if err != nil {
		return nil, err
	}
	result, err := bat.NewShorts(s.Region, col.Count())
	if err != nil {
		return nil, err
	}
	if err := result.SetLen(col.Count()); err != nil {
		result.Free()
		return nil, err
	}
	matches := 0
	var work perf.Work
	for i := 0; i < col.Count(); i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				result.Free()
				return nil, err
			}
		}
		row := col.Get(i)
		end, steps := bt.Match(row)
		work.Rows++
		work.RegexRows++
		work.Steps += steps
		work.Bytes += uint64(len(row))
		if end > 0 {
			result.Set(i, satPos(end))
			matches++
		}
	}
	var bd sim.Counter
	bd.Add(PhaseDatabase, s.Model.DatabaseOverhead)
	bd.Add(PhaseUDF, s.Model.UDFOverhead)
	swCost := sim.Time(work.Steps)*s.Model.StepCost +
		sim.Time(work.RegexRows)*s.Model.RegexRowOverhead
	bd.Add(PhaseSoftware, swCost)
	sp.End()
	sp.AddSim(swCost)
	sp.SetAttr("rows", int64(work.RegexRows))
	sp.SetAttr("matches", int64(matches))
	return &Result{
		Matches:       result,
		MatchCount:    matches,
		Degraded:      true,
		DegradedCause: cause.Error(),
		Work:          work,
		Breakdown:     &bd,
	}, nil
}
