package experiments

import (
	"fmt"
	"io"
	"sync"

	"doppiodb/internal/core"
	"doppiodb/internal/sim"
	"doppiodb/internal/sql"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/workload"
)

// The repeated-pattern experiment is the acceptance run for the physical-
// plan layer's two caches. A fleet of clients issues the same REGEXP_LIKE
// query through the SQL engine against one hardware-backed system, in
// three passes:
//
//   - cold: one query on a fresh system — the plan cache misses, the cost
//     model prices the candidates, and config generation compiles the
//     Glushkov automaton into a 512-bit vector.
//   - warm: clients × rounds repeats of the same statement — every plan
//     compiles from the cache (placement decision reused, zero simulated
//     config-generation time via the core config cache).
//   - shared: a fresh system with the shared-scan coalescer on; every
//     round barrier-starts all clients on the same pattern, so concurrent
//     scans merge into fewer HAL job groups than queries while each query
//     still gets its own attributed result.
//
// CI gates on warm.plan_cache_hits > 0, warm.compile_ns < cold.compile_ns,
// shared.job_groups < shared.queries, shared.followers >= 1, and the
// ledger identity shared.leaders + shared.followers == shared.queries.

// RepeatPass is one pass's ledger.
type RepeatPass struct {
	Label   string `json:"label"`
	Queries int64  `json:"queries"`
	// Matches is the per-query match count (identical across the pass by
	// construction; divergence fails the experiment).
	Matches int `json:"matches"`
	// Plan-cache and config-cache counter deltas over the pass.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	ConfigCacheHits int64 `json:"config_cache_hits"`
	// CompileNS is the summed simulated config-generation time of the
	// pass's queries, in nanoseconds: the phase a cached plan skips.
	CompileNS int64 `json:"compile_ns"`
	// JobGroups is the HAL dispatch delta: with coalescing, fewer groups
	// than queries.
	JobGroups int64 `json:"job_groups"`
	// Leaders/Followers is the shared-scan ledger (leaders + followers ==
	// queries when every query offloads).
	Leaders   int64 `json:"leaders"`
	Followers int64 `json:"followers"`
}

// RepeatResult is the three-pass report.
type RepeatResult struct {
	Clients int    `json:"clients"`
	Rounds  int    `json:"rounds"`
	Rows    int    `json:"rows"`
	Pattern string `json:"pattern"`

	Cold   RepeatPass `json:"cold"`
	Warm   RepeatPass `json:"warm"`
	Shared RepeatPass `json:"shared"`
}

// repeatRounds is the per-client round count of the warm and shared
// passes: enough repeats that cache effects dominate the ledger.
const repeatRounds = 3

// repeatSystem boots a hardware-backed system with a private telemetry
// registry (so counter deltas are the pass's own) and a SQL engine wired
// to its cost-model advisor.
func repeatSystem(cfg Config, shared bool) (*core.System, *sql.Engine, []string, int, error) {
	cfg.Base.Telemetry = telemetry.NewRegistry()
	cfg.Base.SharedScans = shared
	s, err := cfg.newSystem(nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	rows, hits := genTable(cfg, workload.HitQ2)
	if _, err := s.DB.LoadAddressTable("address_table", rows); err != nil {
		return nil, nil, nil, 0, err
	}
	e := sql.NewEngine(s.DB)
	e.Advisor = s
	return s, e, rows, hits, nil
}

// repeatQuery is the workload statement: the paper's Q2 as a REGEXP_LIKE
// predicate, the shape the placement advisor offloads at experiment scale.
func repeatQuery() string {
	return `SELECT count(*) FROM address_table WHERE REGEXP_LIKE(address_string, '` +
		workload.Q2 + `')`
}

// runRepeatPass issues clients×rounds queries (barrier-starting each round
// when concurrent) and returns the pass ledger from counter deltas.
func runRepeatPass(s *core.System, e *sql.Engine, label string, clients, rounds int, concurrent bool) (RepeatPass, error) {
	q := repeatQuery()
	base := s.Tel.Snapshot().Counters
	groupsBefore := s.HAL.GroupsDispatched()

	var mu sync.Mutex
	var compile sim.Time
	matches := -1
	var firstErr error
	runOne := func() {
		res, err := e.Query(q)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		n := int(res.Rows[0][0].(int64))
		if matches == -1 {
			matches = n
		} else if matches != n {
			firstErr = fmt.Errorf("repeat: %s pass diverged: %d matches vs %d", label, n, matches)
		}
		if res.UDF != nil {
			compile += sim.FromSeconds(res.UDF.Breakdown[core.PhaseConfigGen])
		}
	}

	for r := 0; r < rounds; r++ {
		if concurrent {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					runOne()
				}()
			}
			close(start)
			wg.Wait()
		} else {
			for c := 0; c < clients; c++ {
				runOne()
			}
		}
		if firstErr != nil {
			return RepeatPass{}, firstErr
		}
	}

	snap := s.Tel.Snapshot()
	delta := func(name string) int64 { return snap.Counter(name) - base[name] }
	return RepeatPass{
		Label:           label,
		Queries:         int64(clients * rounds),
		Matches:         matches,
		PlanCacheHits:   delta("plan.cache_hits"),
		PlanCacheMisses: delta("plan.cache_misses"),
		ConfigCacheHits: delta("core.config_cache_hits"),
		CompileNS:       int64(compile / sim.Nanosecond),
		JobGroups:       s.HAL.GroupsDispatched() - groupsBefore,
		Leaders:         delta("core.sharedscan.leaders"),
		Followers:       delta("core.sharedscan.followers"),
	}, nil
}

// Repeat runs the three-pass repeated-pattern workload.
func Repeat(cfg Config) (*RepeatResult, error) {
	cfg = cfg.withDefaults()
	res := &RepeatResult{
		Clients: cfg.Clients,
		Rounds:  repeatRounds,
		Rows:    cfg.SampleRows,
		Pattern: workload.Q2,
	}

	// Cold + warm share one system: the cold pass pays the one compile,
	// the warm pass must never pay it again.
	s, e, _, _, err := repeatSystem(cfg, false)
	if err != nil {
		return nil, err
	}
	if res.Cold, err = runRepeatPass(s, e, "cold", 1, 1, false); err != nil {
		return nil, err
	}
	if res.Warm, err = runRepeatPass(s, e, "warm", cfg.Clients, repeatRounds, false); err != nil {
		return nil, err
	}

	// The shared pass boots its own coalescing system so its dispatch
	// ledger starts at zero.
	ss, se, _, _, err := repeatSystem(cfg, true)
	if err != nil {
		return nil, err
	}
	if res.Shared, err = runRepeatPass(ss, se, "shared", cfg.Clients, repeatRounds, true); err != nil {
		return nil, err
	}

	if res.Cold.Matches != res.Warm.Matches || res.Cold.Matches != res.Shared.Matches {
		return nil, fmt.Errorf("repeat: passes disagree on matches: cold=%d warm=%d shared=%d",
			res.Cold.Matches, res.Warm.Matches, res.Shared.Matches)
	}
	return res, nil
}

// Render prints the three-pass table.
func (r *RepeatResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Repeated-pattern workload (plan cache + shared scans): %d clients x %d rounds, %d rows, pattern %s\n",
		r.Clients, r.Rounds, r.Rows, r.Pattern)
	fmt.Fprintf(w, "%-8s %8s %8s %10s %10s %12s %12s %10s %8s %10s\n",
		"pass", "queries", "matches", "plan_hits", "plan_miss", "config_hits", "compile_ns", "groups", "leaders", "followers")
	for _, p := range []RepeatPass{r.Cold, r.Warm, r.Shared} {
		fmt.Fprintf(w, "%-8s %8d %8d %10d %10d %12d %12d %10d %8d %10d\n",
			p.Label, p.Queries, p.Matches, p.PlanCacheHits, p.PlanCacheMisses,
			p.ConfigCacheHits, p.CompileNS, p.JobGroups, p.Leaders, p.Followers)
	}
}
