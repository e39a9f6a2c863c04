package core

import (
	"testing"

	"doppiodb/internal/config"
	"doppiodb/internal/fpga"
	"doppiodb/internal/workload"
)

func TestEstimateCostPlacements(t *testing.T) {
	s := newSystem(t)

	// Large complex scan: the FPGA wins decisively.
	est, err := s.EstimateCost(workload.Q2, 2_500_000, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Placement != PlaceFPGA {
		t.Errorf("large complex scan placed %v, want fpga", est.Placement)
	}
	if est.SWTime < 10*est.HWTime {
		t.Errorf("SW %v should dwarf HW %v for 2.5M rows", est.SWTime, est.HWTime)
	}
	if est.States != 4 || est.Chars != 20 {
		t.Errorf("resource estimate: %d states / %d chars", est.States, est.Chars)
	}

	// Even a tiny input offloads: the fixed offload cost (~0.1 ms) is
	// far below MonetDB's per-query overhead — consistent with Fig. 10's
	// sub-millisecond totals at 10 k tuples.
	est, err = s.EstimateCost(workload.Q1Regex, 50, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Placement != PlaceFPGA {
		t.Errorf("tiny scan placed %v, want fpga", est.Placement)
	}

	// Heavy queued load can flip the decision for borderline inputs.
	base, err := s.EstimateCost(workload.Q1Regex, 40_000, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := s.EstimateCost(workload.Q1Regex, 40_000, 64, 400<<30)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.QueueDelay <= base.QueueDelay {
		t.Error("queued load not reflected in delay")
	}
	if loaded.Placement != PlaceSoftware {
		t.Errorf("overloaded FPGA should push work to software, got %v", loaded.Placement)
	}
}

func TestEstimateCostHybridPlacement(t *testing.T) {
	dep := fpga.DefaultDeployment()
	dep.Limits = config.Limits{MaxStates: 8, MaxChars: 24}
	s, err := NewSystem(Options{Deployment: &dep, RegionBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.EstimateCost(workload.QH, 2_500_000, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Placement != PlaceHybrid {
		t.Errorf("oversized expression placed %v, want hybrid", est.Placement)
	}
	// An unsplittable oversized expression falls back to software.
	est, err = s.EstimateCost(`[A-Za-z]{9}[0-9]{9}[a-z]{9}`, 2_500_000, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Placement != PlaceSoftware {
		t.Errorf("unsplittable expression placed %v, want software", est.Placement)
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceFPGA.String() != "fpga" || PlaceHybrid.String() != "hybrid" ||
		PlaceSoftware.String() != "software" || Placement(9).String() != "unknown" {
		t.Error("Placement.String broken")
	}
}

func TestAdviseOffload(t *testing.T) {
	s := newSystem(t)
	if rec, err := s.ExplainCost(workload.Q2, 2_500_000, 64); err != nil || !rec.Offloads() {
		t.Errorf("should offload a large complex scan (err %v)", err)
	}
	if rec, err := s.ExplainCost(workload.Q1Regex, 50, 64); err != nil || !rec.Offloads() {
		t.Errorf("even tiny scans offload: fixed costs are sub-millisecond (err %v)", err)
	}
	if rec, err := s.ExplainCost(`(`, 1000, 64); err == nil {
		t.Errorf("invalid pattern must not offload: got record %+v", rec)
	}
}
