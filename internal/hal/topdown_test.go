package hal

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"doppiodb/internal/sim"
	"doppiodb/internal/topdown"
)

// The fabric-level half of the conservation invariant: across a 3-seed
// sweep of concurrent submitters (so rounds mix jobs from several engines
// and queues of different depths), the HAL's cumulative topdown ledgers
// stay exact — per-engine buckets sum to the walls, the link ledger does
// too — and every job's Completion buckets sum to their own wall. Run
// under -race this also exercises the ledgers' locking.
func TestTopdownConservationSweep(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h, region := newHAL(t)
			defer h.Close()
			rng := rand.New(rand.NewSource(seed))
			type submitted struct {
				jobs []*Job
			}
			var batches []submitted
			for b := 0; b < 6; b++ {
				rows := make([]string, 50+rng.Intn(400))
				for i := range rows {
					rows[i] = fmt.Sprintf("row %d Strasse %d", i, rng.Intn(99999))
				}
				p, _, _ := buildParams(t, region, "Strasse", rows)
				engines := 1 + rng.Intn(h.Engines())
				var jobs []*Job
				for e := 0; e < engines; e++ {
					jobs = append(jobs, submit(t, h, e, p))
				}
				batches = append(batches, submitted{jobs})
			}
			var wg sync.WaitGroup
			for _, b := range batches {
				wg.Add(1)
				go func(jobs []*Job) {
					defer wg.Done()
					if err := h.DispatchContext(context.Background(), jobs...); err != nil {
						t.Error(err)
						return
					}
					for _, j := range jobs {
						c, err := j.Await(context.Background())
						if err != nil {
							t.Error(err)
							return
						}
						if !c.Buckets.Conserved() {
							t.Errorf("engine %d job completion buckets not conserved: sum %v, wall %v",
								j.Engine, c.Buckets.Sum(), c.Buckets.Wall)
						}
						if c.Buckets.Idle != 0 {
							t.Errorf("engine %d job owns idle time %v; jobs must not", j.Engine, c.Buckets.Idle)
						}
					}
				}(b.jobs)
			}
			wg.Wait()
			rep := h.Topdown()
			if !rep.Conserved() {
				t.Errorf("fabric report not conserved: %+v", rep)
			}
			if rep.Rounds == 0 {
				t.Error("fabric report saw no rounds")
			}
			var busy sim.Time
			for _, e := range rep.Engines {
				busy += e.Buckets.Busy
			}
			if busy == 0 {
				t.Error("fabric report accumulated no busy cycles")
			}
			if rep.Link.Wall == 0 || !rep.Link.Conserved() {
				t.Errorf("link ledger bad: %+v", rep.Link)
			}
		})
	}
}

// An idle fabric reports an empty, trivially conserved topdown view.
func TestTopdownEmptyFabric(t *testing.T) {
	h, _ := newHAL(t)
	defer h.Close()
	rep := h.Topdown()
	if len(rep.Engines) != h.Engines() {
		t.Fatalf("engines = %d, want %d", len(rep.Engines), h.Engines())
	}
	if !rep.Conserved() {
		t.Error("empty fabric must conserve trivially")
	}
	if (rep.Total() != topdown.Buckets{}) {
		t.Errorf("empty fabric has cycles: %+v", rep.Total())
	}
}
