package memmodel

import (
	"math/rand"
	"testing"

	"doppiodb/internal/bat"
	"doppiodb/internal/topdown"
)

// The topdown accounting's hard invariant: every simulated engine cycle
// lands in exactly one bucket, so per-engine buckets sum *exactly* to the
// batch wall — no epsilon — and the link ledger does the same. The sweep
// below exercises random multi-engine queues across three seeds, including
// skewed engines, empty queues and single-line jobs.
func TestCycleConservationProperty(t *testing.T) {
	p := Default()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			engines := 1 + rng.Intn(4)
			queues := make([][]Job, engines)
			for e := range queues {
				for k, n := 0, rng.Intn(4); k < n; k++ {
					rows := 1 + rng.Intn(30_000)
					queues[e] = append(queues[e],
						JobForStrings(rows, 64, bat.OffsetWidth, bat.EntryStride(64), 2))
				}
			}
			res := Simulate(p, queues)
			checkConservation(t, p, queues, res)
		}
	}
}

func checkConservation(t *testing.T, p Params, queues [][]Job, res Result) {
	t.Helper()
	if got, want := len(res.Engines), len(queues); got != want {
		t.Fatalf("ledger count = %d, want %d", got, want)
	}
	if !res.Link.Conserved() {
		t.Errorf("link ledger not conserved: busy %v + arb %v + idle %v = %v, wall %v",
			res.Link.Busy, res.Link.Arbitration, res.Link.Idle, res.Link.Sum(), res.Link.Wall)
	}
	var total JobLedger
	for e, led := range res.Engines {
		if !led.Conserved() {
			t.Errorf("engine %d ledger not conserved: sum %v, wall %v", e, led.Sum(), led.Wall)
		}
		if led.Wall != res.Link.Wall {
			t.Errorf("engine %d wall %v != link wall %v", e, led.Wall, res.Link.Wall)
		}
		// Per-job ledgers partition the engine's active (non-idle) time:
		// their sums must telescope exactly back to the engine ledger, each
		// job's own wall closes over its buckets, and its service window
		// ends at the completion time Done reports.
		var jobs topdown.Buckets
		var bytes int64
		for k, jb := range res.PerJob[e] {
			jobs.Add(jb.Buckets)
			bytes += jb.Bytes
			total.Add(jb)
			if !jb.Buckets.Conserved() || jb.Buckets.Idle != 0 || jb.Buckets.Config != 0 {
				t.Errorf("engine %d job %d buckets not closed over busy+stalls: %+v", e, k, jb.Buckets)
			}
			if jb.Start > jb.Done || jb.Done != res.Done[e][k] {
				t.Errorf("engine %d job %d window [%v, %v], Done[e][k] = %v", e, k, jb.Start, jb.Done, res.Done[e][k])
			}
		}
		jobs.Idle, jobs.Wall = led.Idle, led.Wall
		if jobs != led {
			t.Errorf("engine %d per-job sums %+v != ledger %+v", e, jobs, led)
		}
		var want int64
		for _, j := range queues[e] {
			want += (p.lines(j.OffsetBytes) + p.lines(j.HeapBytes) + p.lines(j.ResultBytes)) *
				int64(p.LineBytes)
		}
		if bytes != want {
			t.Errorf("engine %d per-job bytes %d != line-rounded queue volume %d", e, bytes, want)
		}
	}
	// The link-side counters are the per-job ledgers summed: nothing the
	// arbiter moved is unowned, nothing is counted twice.
	if total.Bytes != res.BytesMoved || total.Grants != res.Grants ||
		total.Switches != res.Switches || total.LinkBusy != res.BusyTime {
		t.Errorf("per-job sums (bytes %d grants %d switches %d busy %v) != result totals (%d %d %d %v)",
			total.Bytes, total.Grants, total.Switches, total.LinkBusy,
			res.BytesMoved, res.Grants, res.Switches, res.BusyTime)
	}
	if total.Done != res.Finish {
		t.Errorf("latest job completion %v != the link's finish %v", total.Done, res.Finish)
	}
}

// Empty batches and empty engines conserve trivially (walls of zero).
func TestCycleConservationEdges(t *testing.T) {
	p := Default()
	for _, queues := range [][][]Job{
		{},
		{nil, nil},
		{nil, {JobForStrings(1, 64, 4, 72, 2)}},
	} {
		checkConservation(t, p, queues, Simulate(p, queues))
	}
}
