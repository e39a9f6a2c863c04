package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"doppiodb/internal/bat"
	"doppiodb/internal/config"
	"doppiodb/internal/core"
	"doppiodb/internal/engine"
	"doppiodb/internal/explain"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/hal"
	"doppiodb/internal/mdb"
	"doppiodb/internal/obs"
	"doppiodb/internal/sql"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
)

// stack is one booted doppioDB: what the doppiodb facade's Open builds,
// with every process-wide default replaced by an instance the harness owns.
// Nothing lands in telemetry.Default and friends, DOPPIO_FAULTS cannot
// perturb a run, and counters are read back as Registry.Snapshot deltas.
type stack struct {
	tel     *telemetry.Registry
	sys     *core.System
	engines []*sql.Engine // one per client
}

func bootStack(clients int) (*stack, error) {
	tel := telemetry.NewRegistry()
	sys, err := core.NewSystem(core.Options{
		Telemetry: tel,
		Recorder:  flightrec.New(0),
		Auditor:   explain.NewAuditor(explain.Options{}),
		Obs:       obs.New(obs.Options{}),
		Faults:    faults.New(faults.Options{}),
	})
	if err != nil {
		return nil, err
	}
	st := &stack{tel: tel, sys: sys}
	for i := 0; i < clients; i++ {
		st.engines = append(st.engines, sql.NewEngine(sys.DB))
	}
	return st, nil
}

func (st *stack) close() { st.sys.Close() }

// stmtKind selects how the harness replays a statement layer by layer.
type stmtKind int

const (
	kindFPGA stmtKind = iota
	kindRegexp
	kindLike
	kindContains
)

// statement is one generated SQL count query with its oracle answer.
type statement struct {
	label   string // q1..qh for the offload path; regexp.q2, like, ... for software
	sql     string
	kind    stmtKind
	table   *mdb.Table
	pattern string // the predicate's argument, as the mdb/core call takes it
	fold    bool
	want    int64 // oracle match count over the generated rows
}

const stringCol = "address_string"

func fpgaStatement(label string, tbl *mdb.Table, pattern string, want int) *statement {
	return &statement{
		label:   label,
		kind:    kindFPGA,
		table:   tbl,
		pattern: pattern,
		want:    int64(want),
		sql: fmt.Sprintf("SELECT count(*) FROM %s WHERE REGEXP_FPGA('%s', %s) <> 0",
			tbl.Name, pattern, stringCol),
	}
}

func (s *statement) strings() *bat.Strings { return stringColumn(s.table) }

func stringColumn(tbl *mdb.Table) *bat.Strings {
	col, err := tbl.Column(stringCol)
	if err != nil {
		panic(err) // every harness table is an address table
	}
	return col.Strs
}

// collector gathers what the traced invocation's untraced phase reads off
// each statement: wall time per label (the base of trace_overhead_frac),
// the simulated breakdown, and the result bytes the harness had to free.
// A nil collector collects nothing.
type collector struct {
	queryS    map[string][]float64 // label -> Engine.Query wall seconds
	simTotalS map[string]float64   // label -> simulated response seconds of the last execution
	// Σ simulated hardware and config-gen time, in whole picoseconds (the
	// simulator's unit) so that the per-op mean does not depend on how many
	// ops a window held.
	simHWPS, simConfigPS int64
	freedBytes           int64
}

func newCollector() *collector {
	return &collector{queryS: make(map[string][]float64), simTotalS: make(map[string]float64)}
}

// query runs one statement through the SQL engine, checks the count against
// the oracle, and frees the result BAT. Nothing in the tree frees
// res.UDF.Result (ROADMAP item 4), so without the Free a faster build would
// exhaust the shared region sooner within the same window and fail more ops.
func (st *stack) query(ctx context.Context, client int, s *statement, parent *span, c *collector) error {
	sp := parent.child("query." + s.label)
	t0 := time.Now()
	res, err := st.engines[client].QueryContext(ctx, s.sql)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", s.label, err)
	}
	if c != nil {
		c.queryS[s.label] = append(c.queryS[s.label], wall.Seconds())
	}
	if udf := res.UDF; udf != nil {
		if c != nil {
			c.simTotalS[s.label] = sumSorted(udf.Breakdown)
			c.simHWPS += int64(math.Round(udf.HWSeconds * 1e12))
			c.simConfigPS += int64(math.Round(udf.Breakdown[core.PhaseConfigGen] * 1e12))
		}
		if udf.Result != nil {
			if c != nil {
				c.freedBytes += int64(len(udf.Result.Bytes()))
			}
			udf.Result.Free()
		}
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Errorf("%s: result is not one count", s.label)
	}
	if got, _ := res.Rows[0][0].(int64); got != s.want {
		return fmt.Errorf("%s: count %v, oracle says %d", s.label, res.Rows[0][0], s.want)
	}
	return nil
}

// sumSorted adds a map's values in key order, so the float sum is the same
// on every run.
func sumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// execDirect runs the statement through core.System.Exec, the SQL layer
// bypassed, under a core.exec.<label> span.
func (st *stack) execDirect(ctx context.Context, s *statement, parent *span) error {
	sp := parent.child("core.exec." + s.label)
	res, err := st.sys.Exec(ctx, s.strings(), s.pattern, token.Options{})
	sp.end()
	if err != nil {
		return fmt.Errorf("core.exec.%s: %w", s.label, err)
	}
	defer res.Matches.Free()
	if int64(res.MatchCount) != s.want {
		return fmt.Errorf("core.exec.%s: count %d, oracle says %d", s.label, res.MatchCount, s.want)
	}
	return nil
}

// replay calls the layers under a statement itself, one span per stage, in
// the order the program does, so each stage's self time can be set against
// the query.<label> span of the same trace.
func (st *stack) replay(ctx context.Context, s *statement, parent *span) error {
	rp := parent.child("replay." + s.label)
	defer rp.end()
	sp := rp.child("sql.parse")
	_, err := sql.Parse(s.sql)
	sp.end()
	if err != nil {
		return err
	}
	if s.kind == kindFPGA {
		return st.replayOffload(ctx, s, rp)
	}
	sp = rp.child("mdb." + s.label)
	var sel *mdb.Selection
	switch s.kind {
	case kindRegexp:
		sel, err = st.sys.DB.SelectRegexp(s.table, stringCol, s.pattern, false)
	case kindLike:
		sel, err = st.sys.DB.SelectLike(s.table, stringCol, s.pattern, s.fold)
	case kindContains:
		sel, err = st.sys.DB.SelectContains(s.table, stringCol, s.pattern)
	}
	sp.end()
	if err != nil {
		return err
	}
	if int64(sel.Count()) != s.want {
		return fmt.Errorf("replay.%s: count %d, oracle says %d", s.label, sel.Count(), s.want)
	}
	return nil
}

// replayOffload follows core.execDirect: cost estimate, pattern compile,
// config encode, result-BAT allocation, partitioned HAL submit (which holds
// the functional PU match), dispatch and await, free. A pattern over the
// device's capacity replays its hardware prefix; the software tail of a
// hybrid query is not replayed and stays in core.glue_ms.
func (st *stack) replayOffload(ctx context.Context, s *statement, rp *span) error {
	sys, col := st.sys, s.strings()
	n := col.Count()
	avgLen := 64
	if n > 0 && col.PayloadBytes() > 0 {
		avgLen = col.PayloadBytes() / n
	}
	sp := rp.child("core.estimate")
	_, err := sys.ExplainCost(s.pattern, n, avgLen)
	sp.end()
	if err != nil {
		return err
	}

	lim := sys.Device.Deployment.Limits
	sp = rp.child("token.compile")
	prog, err := token.CompilePattern(s.pattern, token.Options{})
	sp.end()
	if err != nil {
		return err
	}
	if config.Fits(prog, lim) != nil {
		sp = rp.child("core.split")
		hw, _, err := core.SplitPattern(s.pattern, lim, token.Options{})
		if err == nil {
			prog, err = token.CompilePattern(hw, token.Options{})
		}
		sp.end()
		if err != nil {
			return err
		}
	}
	sp = rp.child("config.encode")
	vec, err := config.Encode(prog, lim)
	sp.end()
	if err != nil {
		return err
	}

	sp = rp.child("shmem.alloc")
	result, err := bat.NewShorts(sys.Region, n)
	if err == nil {
		err = result.SetLen(n)
	}
	sp.end()
	if err != nil {
		return err
	}
	defer result.Free()

	sp = rp.child("hal.submit")
	var jobs []*hal.Job
	for e, p := range partitions(sys.HAL.Engines(), vec, col, result) {
		var j *hal.Job
		if j, err = sys.HAL.SubmitToContext(ctx, e, p); err != nil {
			break
		}
		jobs = append(jobs, j)
	}
	sp.end()
	if err != nil {
		sys.HAL.Discard(jobs...)
		return err
	}

	sp = rp.child("hal.await")
	defer sp.end()
	if err := sys.HAL.DispatchContext(ctx, jobs...); err != nil {
		sys.HAL.Discard(jobs...)
		return err
	}
	for _, j := range jobs {
		if _, err := j.Await(ctx); err != nil {
			return err
		}
	}
	return nil
}

// partitions splits the column row-wise into one job per engine, the way
// core.submitPartitioned does.
func partitions(engines int, vec []byte, col *bat.Strings, result *bat.Shorts) []engine.JobParams {
	n := col.Count()
	if n < engines*64 {
		engines = 1
	}
	offsets, heap, res := col.OffsetBytes(), col.HeapBytes(), result.Bytes()
	chunk := (n + engines - 1) / engines
	var out []engine.JobParams
	for e := 0; e < engines; e++ {
		lo, hi := e*chunk, min((e+1)*chunk, n)
		if lo >= hi {
			break
		}
		out = append(out, engine.JobParams{
			Config:      vec,
			Offsets:     offsets[lo*bat.OffsetWidth : hi*bat.OffsetWidth],
			OffsetWidth: bat.OffsetWidth,
			Heap:        heap,
			Count:       hi - lo,
			Result:      res[lo*2 : hi*2],
		})
	}
	return out
}
