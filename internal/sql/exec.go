package sql

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"doppiodb/internal/explain"
	"doppiodb/internal/hal"
	"doppiodb/internal/mdb"
	"doppiodb/internal/obs"
	"doppiodb/internal/perf"
	"doppiodb/internal/plan"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
)

// PlacementAdvisor is the optimizer hook of the paper's §9 discussion: a
// cost model that decides whether a REGEXP_LIKE predicate should run on
// its software implementation or be offloaded to the hardware operator,
// and accounts for the decision either way. internal/core's System
// implements it.
type PlacementAdvisor interface {
	// ExplainCost prices every candidate plan for the pattern over rows
	// strings of avgLen bytes and returns the decision record (chosen plan
	// + reason included); rec.Offloads() is the advice.
	ExplainCost(pattern string, rows, avgLen int) (*explain.Record, error)
	// FinishSoftware fills a record's actuals for a predicate that ran on
	// the CPU scan path, from the scan's realized work.
	FinishSoftware(rec *explain.Record, w perf.Work)
}

// Engine executes SQL over the column store.
type Engine struct {
	DB *mdb.DB
	// Advisor, when set, lets the engine transparently route
	// REGEXP_LIKE predicates to the hardware UDF when the cost model
	// predicts a win (§9's "the query optimizer will then be able to
	// dynamically decide where an operator ... will be executed").
	Advisor PlacementAdvisor
	// Tel receives query-level metrics (query counts, fast-path hits,
	// rows out). Nil is safe: metrics are recorded into detached
	// instances and simply not exported.
	Tel *telemetry.Registry
	// ID labels this engine's sessions in pprof profiles
	// (doppio.session); NewEngine assigns s1, s2, ... per database.
	ID string
	// QueryBudget, when positive, attaches a simulated-time deadline to
	// every query: the HAL refuses admission when the cost model's ETA
	// already exceeds the budget and aborts queued work that outlives it
	// (hal.ErrDeadlineExceeded, errors.Is-able as
	// context.DeadlineExceeded).
	QueryBudget sim.Time
	// Plans is the bounded LRU plan cache, keyed by the normalized
	// statement plus the versions of every base table it touches. A hit
	// reuses the cost model's placement decision (no re-estimation) and
	// rides the core layer's compiled-config cache, so repeat patterns
	// skip Glushkov construction and the 512-bit encode. Nil disables
	// caching (struct-literal Engines); NewEngine wires one in.
	Plans *plan.Cache

	queries atomic.Int64
}

// NewEngine wraps a database.
func NewEngine(db *mdb.DB) *Engine {
	return &Engine{
		DB:    db,
		Tel:   db.Tel,
		ID:    "s" + strconv.FormatInt(db.NextSession(), 10),
		Plans: plan.NewCache(128, db.Tel, "plan.cache"),
	}
}

// Result is a query result with work accounting.
type Result struct {
	Cols []string
	Rows [][]any
	// Work is the software scan work (for the perf model).
	Work perf.Work
	// FastPath names the BAT-algebra shortcut taken: "like", "regexp",
	// "contains", "udf", or "" for the general executor.
	FastPath string
	// UDF carries the HUDF's accounting when the query offloaded.
	UDF *mdb.UDFResult
	// Trace is the query-lifecycle span tree (sql-parse → scan/pipeline
	// operators, with the HUDF's hardware sub-tree adopted when the query
	// offloaded).
	Trace *telemetry.Span
	// Decision is the placement decision record (EXPLAIN's view) when the
	// query carried a hardware-eligible predicate: candidate plans,
	// predicted cost terms, and — once executed — per-term error.
	Decision *explain.Record
	// Plan is the executed physical-operator tree: per-operator placement,
	// plan-cache status, and observed row counts (doppiosh's \plan view).
	Plan *plan.Node
}

// Query parses and executes one SELECT.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext parses and executes one SELECT under ctx: cancellation
// propagates into the hardware operator, aborting its not-yet-granted FPGA
// jobs. The Engine itself is stateless across queries, so concurrent
// sessions may share one Engine or hold one each.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.QueryBudget > 0 {
		ctx = hal.WithBudget(ctx, e.QueryBudget)
	}
	root := telemetry.StartSpan("query")
	p := root.StartChild("sql-parse")
	stmt, err := Parse(src)
	p.End()
	if err != nil {
		e.Tel.Counter("sql.parse_errors").Inc()
		return nil, err
	}
	// Label the serving goroutine so /debug/pprof profiles attribute
	// samples per session and query (core adds the placement label), and
	// thread the same identity down the context so the wide event emitted
	// at query completion can name the caller.
	qid := strconv.FormatInt(e.queries.Add(1), 10)
	ctx = obs.WithQueryInfo(ctx, e.ID, qid)
	var res *Result
	pprof.Do(ctx, pprof.Labels("doppio.session", e.ID, "doppio.query", qid),
		func(ctx context.Context) {
			res, err = e.exec(ctx, stmt, root)
		})
	return res, err
}

// Exec executes a parsed statement.
func (e *Engine) Exec(stmt *SelectStmt) (*Result, error) {
	return e.exec(context.Background(), stmt, telemetry.StartSpan("query"))
}

// exec is the query entry point: compile the statement into a physical
// operator tree (planner.go), then drive the tree (physexec.go). All
// execution — fast counts included — flows through internal/plan operators;
// the pre-operator inline path survives only as the equivalence-test
// reference in legacy_test.go, compiled into the test binary only.
func (e *Engine) exec(ctx context.Context, stmt *SelectStmt, root *telemetry.Span) (*Result, error) {
	e.Tel.Counter("sql.queries").Inc()
	if stmt.Explain {
		return e.explainQuery(ctx, stmt, root)
	}
	p, err := e.plan(stmt, root)
	if err != nil {
		return nil, err
	}
	res, err := e.execPlan(ctx, p, root)
	if err != nil {
		return nil, err
	}
	if res.FastPath != "" {
		e.Tel.Counter("sql.fastpath." + metricKey(res.FastPath)).Inc()
	}
	return e.finish(res, root), nil
}

// finish closes the query's root span, grafting the HUDF's span tree under
// it when the query offloaded, and records the output row count.
func (e *Engine) finish(res *Result, root *telemetry.Span) *Result {
	if res.UDF != nil && res.UDF.Trace != nil {
		root.Adopt(res.UDF.Trace)
	}
	root.End()
	res.Trace = root
	e.Tel.Counter("sql.rows_out").Add(int64(len(res.Rows)))
	return res
}

// metricKey normalizes a fast-path label for use inside a metric name.
func metricKey(s string) string {
	if s == "" {
		return "none"
	}
	return strings.ReplaceAll(s, "->", "_")
}

// avgStringLen estimates the column's average payload length for the cost
// model (sampled from the heap accounting).
func avgStringLen(tbl *mdb.Table, colName string) int {
	col, err := tbl.Column(colName)
	if err != nil || col.Kind != mdb.KindString || col.Strs.Count() == 0 {
		return 64
	}
	return col.Strs.PayloadBytes() / col.Strs.Count()
}

// likeColumn extracts the column name of a LIKE over this table.
func likeColumn(w *LikeExpr, alias string) (string, bool) {
	ref, ok := w.Operand.(*ColumnRef)
	if !ok {
		return "", false
	}
	if ref.Table != "" && strings.ToLower(ref.Table) != alias {
		return "", false
	}
	return ref.Column, true
}

// containsArgs handles CONTAINS('a & b') over the table's single string
// column and CONTAINS(col, 'a & b').
func containsArgs(w *FuncCall, tbl *mdb.Table) (col, query string, err error) {
	switch len(w.Args) {
	case 1:
		q, ok := w.Args[0].(*StringLit)
		if !ok {
			return "", "", fmt.Errorf("sql: CONTAINS wants a query literal")
		}
		for _, c := range tbl.Columns() {
			if c.Kind == mdb.KindString {
				if col != "" {
					return "", "", fmt.Errorf("sql: CONTAINS needs an explicit column (table has several)")
				}
				col = c.Name
			}
		}
		if col == "" {
			return "", "", fmt.Errorf("sql: table %s has no string column", tbl.Name)
		}
		return col, q.Val, nil
	case 2:
		ref, ok1 := w.Args[0].(*ColumnRef)
		q, ok2 := w.Args[1].(*StringLit)
		if !ok1 || !ok2 {
			return "", "", fmt.Errorf("sql: CONTAINS wants (column, query)")
		}
		return ref.Column, q.Val, nil
	}
	return "", "", fmt.Errorf("sql: CONTAINS wants 1 or 2 arguments")
}

// fpgaPredicate matches REGEXP_FPGA(...) <> 0 (or = 0), returning the call
// and whether the comparison selects non-matches.
func fpgaPredicate(w *BinaryExpr) (call *FuncCall, selectsZero bool) {
	if w.Op != "<>" && w.Op != "=" {
		return nil, false
	}
	c, ok := w.Left.(*FuncCall)
	lit, ok2 := w.Right.(*IntLit)
	if !ok || !ok2 {
		c, ok = w.Right.(*FuncCall)
		lit, ok2 = w.Left.(*IntLit)
		if !ok || !ok2 {
			return nil, false
		}
	}
	if c.Name != "REGEXP_FPGA" || lit.Val != 0 {
		return nil, false
	}
	return c, w.Op == "="
}

func (e *Engine) materializeBase(t *BaseTable) (*relation, error) {
	tbl, err := e.DB.Table(t.Name)
	if err != nil {
		return nil, err
	}
	alias := strings.ToLower(t.Alias)
	if alias == "" {
		alias = strings.ToLower(t.Name)
	}
	rel := &relation{}
	for _, c := range tbl.Columns() {
		rel.cols = append(rel.cols, colMeta{table: alias, name: strings.ToLower(c.Name)})
	}
	n := tbl.Rows()
	rel.rows = make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(tbl.Columns()))
		for j, c := range tbl.Columns() {
			switch c.Kind {
			case mdb.KindInt:
				row[j] = int64(c.Ints.Get(i))
			case mdb.KindString:
				row[j] = c.Strs.GetString(i)
			case mdb.KindShort:
				row[j] = int64(c.Shorts.Get(i))
			}
		}
		rel.rows[i] = row
	}
	return rel, nil
}

func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// findEquiKey locates one left-col = right-col conjunct to hash on.
func findEquiKey(left, right *relation, conjuncts []Expr) (lk, rk int, residual []Expr, err error) {
	lk, rk = -1, -1
	for _, c := range conjuncts {
		if lk >= 0 {
			residual = append(residual, c)
			continue
		}
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			residual = append(residual, c)
			continue
		}
		lr, ok1 := b.Left.(*ColumnRef)
		rr, ok2 := b.Right.(*ColumnRef)
		if !ok1 || !ok2 {
			residual = append(residual, c)
			continue
		}
		if li, e1 := left.resolve(lr); e1 == nil {
			if ri, e2 := right.resolve(rr); e2 == nil {
				lk, rk = li, ri
				continue
			}
		}
		if li, e1 := left.resolve(rr); e1 == nil {
			if ri, e2 := right.resolve(lr); e2 == nil {
				lk, rk = li, ri
				continue
			}
		}
		residual = append(residual, c)
	}
	if lk < 0 {
		return 0, 0, nil, fmt.Errorf("sql: join requires an equality condition between the two sides")
	}
	return lk, rk, residual, nil
}

// exprUsesOnly reports whether every column reference in e resolves within
// rel.
func exprUsesOnly(e Expr, rel *relation) bool {
	ok := true
	var walk func(Expr)
	walk = func(x Expr) {
		if !ok || x == nil {
			return
		}
		switch n := x.(type) {
		case *ColumnRef:
			if _, err := rel.resolve(n); err != nil {
				ok = false
			}
		case *BinaryExpr:
			walk(n.Left)
			walk(n.Right)
		case *NotExpr:
			walk(n.Sub)
		case *IsNullExpr:
			walk(n.Operand)
		case *LikeExpr:
			walk(n.Operand)
		case *FuncCall:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return ok
}

// aggNames are the supported aggregate functions.
var aggNames = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

func isAggregate(e Expr) (*FuncCall, bool) {
	c, ok := e.(*FuncCall)
	if !ok || !aggNames[c.Name] {
		return nil, false
	}
	return c, true
}

func hasAggregate(items []SelectItem) bool {
	for _, it := range items {
		if _, ok := isAggregate(it.Expr); ok {
			return true
		}
	}
	return false
}

// accumulator folds one aggregate over a group.
type accumulator struct {
	call  *FuncCall
	count int64
	sum   int64
	min   any
	max   any
	seen  bool
}

func (a *accumulator) add(v any) error {
	if a.call.Star { // COUNT(*)
		a.count++
		return nil
	}
	if v == nil {
		return nil
	}
	a.count++
	switch a.call.Name {
	case "COUNT":
		return nil
	case "SUM", "AVG":
		n, ok := v.(int64)
		if !ok {
			return fmt.Errorf("sql: %s over %T", a.call.Name, v)
		}
		a.sum += n
	case "MIN", "MAX":
		if !a.seen {
			a.min, a.max, a.seen = v, v, true
			return nil
		}
		cmp, err := compare(v, a.min)
		if err != nil {
			return err
		}
		if cmp < 0 {
			a.min = v
		}
		cmp, err = compare(v, a.max)
		if err != nil {
			return err
		}
		if cmp > 0 {
			a.max = v
		}
		return nil
	}
	a.seen = true
	return nil
}

func (a *accumulator) value() any {
	switch a.call.Name {
	case "COUNT":
		return a.count
	case "SUM":
		if a.count == 0 {
			return nil
		}
		return a.sum
	case "AVG":
		if a.count == 0 {
			return nil
		}
		return a.sum / a.count
	case "MIN":
		if !a.seen {
			return nil
		}
		return a.min
	case "MAX":
		if !a.seen {
			return nil
		}
		return a.max
	}
	return nil
}

// aggregate runs hash grouping with COUNT/SUM/MIN/MAX/AVG aggregates and
// applies HAVING over the grouped output.
func (e *Engine) aggregate(stmt *SelectStmt, rel *relation, ev *evaluator) (*Result, error) {
	type group struct {
		keys   []any
		sample []any // first row, for evaluating group-key projections
		accs   []*accumulator
	}
	// Collect the aggregates in projection order.
	var aggs []*FuncCall
	for _, it := range stmt.Items {
		if c, ok := isAggregate(it.Expr); ok {
			if !c.Star && len(c.Args) != 1 {
				return nil, fmt.Errorf("sql: %s wants one argument", c.Name)
			}
			aggs = append(aggs, c)
		}
	}
	newAccs := func() []*accumulator {
		accs := make([]*accumulator, len(aggs))
		for i, c := range aggs {
			accs[i] = &accumulator{call: c}
		}
		return accs
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range rel.rows {
		var keyParts []any
		for _, g := range stmt.GroupBy {
			v, err := ev.eval(g, row)
			if err != nil {
				return nil, err
			}
			keyParts = append(keyParts, v)
		}
		key := groupKey(keyParts)
		grp, ok := groups[key]
		if !ok {
			grp = &group{keys: keyParts, sample: row, accs: newAccs()}
			groups[key] = grp
			order = append(order, key)
		}
		for ai, agg := range aggs {
			var v any
			if !agg.Star {
				var err error
				v, err = ev.eval(agg.Args[0], row)
				if err != nil {
					return nil, err
				}
			}
			if err := grp.accs[ai].add(v); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregate without GROUP BY over an empty input still yields
	// one row (zero counts, NULL extremes).
	if len(stmt.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{accs: newAccs()}
		order = append(order, "")
	}

	res := &Result{}
	for i, it := range stmt.Items {
		res.Cols = append(res.Cols, colAlias(it, fmt.Sprintf("col%d", i+1)))
	}
	for _, key := range order {
		grp := groups[key]
		var out []any
		ai := 0
		for _, it := range stmt.Items {
			if _, ok := isAggregate(it.Expr); ok {
				out = append(out, grp.accs[ai].value())
				ai++
				continue
			}
			if grp.sample == nil {
				out = append(out, nil)
				continue
			}
			v, err := ev.eval(it.Expr, grp.sample)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	if stmt.Having != nil {
		if err := applyHaving(res, stmt.Having); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// applyHaving filters grouped output rows. The predicate references output
// columns (group keys and aggregate aliases), like ORDER BY.
func applyHaving(res *Result, having Expr) error {
	outRel := &relation{}
	for _, c := range res.Cols {
		outRel.cols = append(outRel.cols, colMeta{name: strings.ToLower(c)})
	}
	hev := newEvaluator(outRel)
	kept := res.Rows[:0]
	for _, row := range res.Rows {
		ok, err := hev.evalBool(having, row)
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	res.Rows = kept
	return nil
}

// groupKey encodes group-key values unambiguously (typed, quoted strings).
func groupKey(parts []any) string {
	var b strings.Builder
	for _, p := range parts {
		switch v := p.(type) {
		case nil:
			b.WriteString("N;")
		case int64:
			fmt.Fprintf(&b, "i%d;", v)
		case string:
			fmt.Fprintf(&b, "s%q;", v)
		case bool:
			fmt.Fprintf(&b, "b%t;", v)
		default:
			fmt.Fprintf(&b, "?%v;", v)
		}
	}
	return b.String()
}

// colAlias derives the output name of a projection.
func colAlias(it SelectItem, fallback string) string {
	if it.Alias != "" {
		return strings.ToLower(it.Alias)
	}
	if ref, ok := it.Expr.(*ColumnRef); ok {
		return strings.ToLower(ref.Column)
	}
	if c, ok := it.Expr.(*FuncCall); ok {
		return strings.ToLower(c.Name)
	}
	return fallback
}

// orderBy sorts result rows by output columns.
func orderBy(res *Result, items []OrderItem) error {
	type key struct {
		idx  int
		desc bool
	}
	var keys []key
	for _, it := range items {
		ref, ok := it.Expr.(*ColumnRef)
		if !ok {
			return fmt.Errorf("sql: ORDER BY supports output columns only")
		}
		idx := -1
		for i, c := range res.Cols {
			if c == strings.ToLower(ref.Column) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("sql: ORDER BY column %q not in output", ref.Column)
		}
		keys = append(keys, key{idx: idx, desc: it.Desc})
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for _, k := range keys {
			va, vb := res.Rows[a][k.idx], res.Rows[b][k.idx]
			if va == nil || vb == nil {
				if va == vb {
					continue
				}
				return (va == nil) != k.desc // nulls first ascending
			}
			cmp, err := compare(va, vb)
			if err != nil {
				sortErr = err
				return false
			}
			if cmp == 0 {
				continue
			}
			if k.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return sortErr
}
