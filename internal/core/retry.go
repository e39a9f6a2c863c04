package core

import (
	"hash/fnv"

	"doppiodb/internal/sim"
)

// Query-level retry: the HAL's submit loop already resubmits a failed job a
// bounded number of times within one attempt, but a whole hardware attempt
// can still fail transiently — an engine mid-drop that a readmission probe
// will recover, a wedged done bit that clears on the next submission. Before
// degrading such a query to the software operator, Exec re-runs the
// hardware attempt under a per-query retry budget with exponential backoff
// and deterministic seeded jitter. Every hardware fault (hal.IsFault) is
// retried; admission refusals are not faults and are never retried.
//
// The backoff is pure simulated time: no wall-clock sleep is taken — the
// delay is charged to the query's breakdown as PhaseRetry — and the jitter
// is a splitmix64 hash of (seed, pattern, attempt), so a single-client run
// that never retries is bit-identical to the pre-retry runtime and a run
// that does retry is bit-identical to itself.

// RetryPolicy is the per-query hardware retry budget.
type RetryPolicy struct {
	// MaxRetries bounds the re-attempts after the first failed hardware
	// attempt (0 disables query-level retry).
	MaxRetries int
	// Backoff is the base delay; attempt k waits Backoff<<k plus jitter.
	Backoff sim.Time
	// Seed feeds the deterministic jitter stream.
	Seed uint64
}

// DefaultRetryPolicy is the stock budget: two retries starting at 200 µs —
// enough for a breaker readmission probe cycle, far below a query's typical
// service time.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 2, Backoff: 200 * sim.Microsecond, Seed: 1}
}

// Delay returns the simulated backoff before re-attempt number attempt
// (0-based) of a query identified by key: exponential in the attempt with
// up to +50% deterministic jitter so synchronized retry storms decorrelate.
func (p RetryPolicy) Delay(attempt int, key string) sim.Time {
	if p.Backoff <= 0 {
		return 0
	}
	base := p.Backoff << uint(attempt)
	f := fnv.New64a()
	f.Write([]byte(key)) //nolint:errcheck // fnv never fails
	j := splitmix64(p.Seed ^ f.Sum64() ^ uint64(attempt+1))
	return base + sim.Time(j%uint64(base/2+1))
}

// splitmix64 is the finalizer of the splitmix64 PRNG — the same mixer the
// fault injector draws from, reused here so jitter is a pure function of
// the seed material.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
