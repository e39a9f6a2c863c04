package sql

import (
	"context"
	"fmt"
	"strings"

	"doppiodb/internal/explain"
	"doppiodb/internal/mdb"
	"doppiodb/internal/perf"
	"doppiodb/internal/plan"
	"doppiodb/internal/telemetry"
)

// This file is the physical planner: it compiles a parsed statement into a
// tree of internal/plan operators. The plan layer owns control flow
// (batching, draining); the closures bound here own the semantics (BAT
// scans, UDF offload, expression evaluation), so operator trees stay free
// of SQL types and the plan package stays a leaf.

// planEntry is what the plan cache stores per normalized statement: the
// cost model's placement decision, so a repeat pattern skips re-estimation
// (and, via the core layer's config cache, Glushkov construction and the
// 512-bit encode). Entries are immutable once published.
type planEntry struct {
	// advised is set once the REGEXP_LIKE placement was decided.
	advised bool
	// rec is the decision-record template; hits hand out Clones.
	rec *explain.Record
	// offload is the decision: route to the hardware UDF or stay soft.
	offload bool
}

// planState collects what the bound closures produce during execution:
// work accounting, the UDF result, the placement decision, and every
// evaluator whose work counters must fold into the result.
type planState struct {
	work     perf.Work
	udf      *mdb.UDFResult
	decision *explain.Record
	evs      []*evaluator
}

// physical is one compiled statement: the operator tree plus everything
// execPlan needs to reassemble the legacy Result contract.
type physical struct {
	root plan.Operator
	stmt *SelectStmt
	st   *planState
	cols []string
	// fastPath carries the BAT-shortcut label ("like", "regexp",
	// "regexp->udf", "contains", "udf") or "" for the general pipeline.
	fastPath string
	// cacheStatus is "hit", "miss", or "" (uncacheable shape).
	cacheStatus string
	entry       *planEntry
	hit         bool
	// Operator handles for post-execution span synthesis (general path).
	srcOp    plan.Operator
	filterOp *plan.Filter
	aggOp    plan.Operator
	aggName  string
	orderOp  *plan.OrderBy
}

// plan compiles stmt, consulting the plan cache first. The key folds in
// every base table's version, so appends invalidate naturally; advisor and
// UDF availability are part of the key because they change the plan.
func (e *Engine) plan(stmt *SelectStmt, root *telemetry.Span) (*physical, error) {
	key := e.planKey(stmt)
	var cached *planEntry
	status := ""
	if key != "" && e.Plans != nil {
		if v, ok := e.Plans.Get(key); ok {
			cached = v.(*planEntry)
			status = "hit"
		} else {
			status = "miss"
		}
	}
	p, err := e.buildPlan(stmt, root, cached)
	if err != nil {
		return nil, err
	}
	p.cacheStatus = status
	stampCache(p.root, status)
	if status == "miss" {
		e.Plans.Put(key, p.entry)
	}
	return p, nil
}

// planKey renders the cache key: advisor/UDF availability flags, each base
// table's name:version, and the canonical statement text. An unknown table
// makes the statement uncacheable ("") — the build will surface the error.
func (e *Engine) planKey(stmt *SelectStmt) string {
	var tables []string
	var walk func(TableRef) bool
	walk = func(r TableRef) bool {
		switch t := r.(type) {
		case *BaseTable:
			tbl, err := e.DB.Table(t.Name)
			if err != nil {
				return false
			}
			tables = append(tables, fmt.Sprintf("%s:%d", strings.ToLower(t.Name), tbl.Version()))
			return true
		case *SubqueryTable:
			return walk(t.Query.From)
		case *JoinTable:
			return walk(t.Left) && walk(t.Right)
		}
		return false
	}
	if stmt.From == nil || !walk(stmt.From) {
		return ""
	}
	_, hasUDF := e.DB.UDF("regexp_fpga")
	return fmt.Sprintf("adv=%t;udf=%t;%s|%s",
		e.Advisor != nil, hasUDF, strings.Join(tables, ","), formatStmt(stmt))
}

// stampCache writes the cache status onto every leaf operator so the plan
// tree renders it (\plan, EXPLAIN).
func stampCache(op plan.Operator, status string) {
	if op == nil || status == "" {
		return
	}
	children := op.Children()
	if len(children) == 0 {
		op.Info().Cache = status
	}
	for _, c := range children {
		stampCache(c, status)
	}
}

func (e *Engine) buildPlan(stmt *SelectStmt, root *telemetry.Span, cached *planEntry) (*physical, error) {
	p := &physical{stmt: stmt, st: &planState{}, entry: cached, hit: cached != nil}
	if p.entry == nil {
		p.entry = &planEntry{}
	}
	ok, err := e.planFastCount(p, root)
	if err != nil {
		return nil, err
	}
	if ok {
		return p, nil
	}
	if err := e.planGeneral(p); err != nil {
		return nil, err
	}
	return p, nil
}

// countPlan tops a count-producing leaf with the count(*) aggregate.
func (p *physical) countPlan(src plan.Operator, path string) {
	agg := plan.NewGroupAggregate(src, "count(*)")
	agg.CountStar = true
	p.root = agg
	p.srcOp = src
	p.cols = []string{colAlias(p.stmt.Items[0], "count")}
	p.fastPath = path
}

// planFastCount recognizes SELECT count(*) FROM t WHERE <single string
// predicate> — the paper's microbenchmark shape — and compiles it to a
// tally-only leaf under a CountStar aggregate: the scan never materializes
// rows, exactly like the legacy fast path.
func (e *Engine) planFastCount(p *physical, root *telemetry.Span) (bool, error) {
	stmt, st := p.stmt, p.st
	bt, ok := stmt.From.(*BaseTable)
	if !ok || stmt.Where == nil || len(stmt.GroupBy) != 0 ||
		len(stmt.OrderBy) != 0 || len(stmt.Items) != 1 || stmt.Items[0].Star {
		return false, nil
	}
	cnt, ok := stmt.Items[0].Expr.(*FuncCall)
	if !ok || cnt.Name != "COUNT" || !cnt.Star {
		return false, nil
	}
	tbl, err := e.DB.Table(bt.Name)
	if err != nil {
		return false, err
	}
	alias := strings.ToLower(bt.Alias)
	if alias == "" {
		alias = strings.ToLower(bt.Name)
	}
	detail := strings.ToLower(bt.Name) + ": " + formatExpr(stmt.Where)
	// scan wraps a software column scan in a bat-scan span at run time.
	scan := func(f func() (*mdb.Selection, error)) (*mdb.Selection, error) {
		sp := root.StartChild("bat-scan")
		sel, err := f()
		sp.End()
		sp.SetAttr("rows", int64(tbl.Rows()))
		if sel != nil {
			sp.SetAttr("selected", int64(sel.Count()))
		}
		return sel, err
	}
	hp, err := hardwarePredicate(stmt.Where)
	if err != nil {
		return false, err
	}
	if hp != nil {
		return e.planRegexCount(p, tbl, detail, hp, scan), nil
	}
	switch w := stmt.Where.(type) {
	case *LikeExpr:
		col, ok := likeColumn(w, alias)
		if !ok {
			return false, nil
		}
		op := plan.NewSoftRegexFilter(detail, func(ctx context.Context) (plan.ScanOut, error) {
			sel, err := scan(func() (*mdb.Selection, error) {
				return e.DB.SelectLike(tbl, col, w.Pattern, w.Fold)
			})
			if err != nil {
				return plan.ScanOut{}, err
			}
			n := sel.Count()
			if w.Negated {
				n = tbl.Rows() - n
			}
			st.work.Add(sel.Work)
			return plan.ScanOut{Tally: int64(n), TallyOnly: true}, nil
		})
		p.countPlan(op, "like")
		return true, nil
	case *FuncCall:
		if w.Name != "CONTAINS" {
			return false, nil
		}
		col, q, err := containsArgs(w, tbl)
		if err != nil {
			return false, err
		}
		op := plan.NewIndexLookup(detail, func(ctx context.Context) (plan.ScanOut, error) {
			sel, err := scan(func() (*mdb.Selection, error) {
				return e.DB.SelectContains(tbl, col, q)
			})
			if err != nil {
				return plan.ScanOut{}, err
			}
			st.work.Add(sel.Work)
			return plan.ScanOut{Tally: int64(sel.Count()), TallyOnly: true}, nil
		})
		p.countPlan(op, "contains")
		return true, nil
	}
	return false, nil
}

// hwPredicate is a hardware-eligible WHERE clause over a string column, the
// shapes the placement machinery prices: REGEXP_LIKE(col, p), which the cost
// model places, and REGEXP_FPGA(p, col) <>|= 0, the explicit hardware
// operator.
type hwPredicate struct {
	column, pattern string
	// forced marks REGEXP_FPGA; selectsZero its `= 0` form, which selects
	// the non-matching rows.
	forced, selectsZero bool
}

// hardwarePredicate recognises a hardware-eligible WHERE clause; nil for any
// other shape.
func hardwarePredicate(where Expr) (*hwPredicate, error) {
	hp := &hwPredicate{}
	var colExpr Expr
	var err error
	switch w := where.(type) {
	case *FuncCall:
		if w.Name != "REGEXP_LIKE" {
			return nil, nil
		}
		colExpr, hp.pattern, err = regexpArgs(w)
	case *BinaryExpr:
		call, zero := fpgaPredicate(w)
		if call == nil {
			return nil, nil
		}
		hp.forced, hp.selectsZero = true, zero
		colExpr, hp.pattern, err = regexpFPGAArgs(call)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ref, ok := colExpr.(*ColumnRef)
	if !ok {
		return nil, nil
	}
	hp.column = ref.Column
	return hp, nil
}

// planRegexCount plans count(*) over a hardware-eligible predicate: the
// hardware leaf when the operator is explicit or the cost model offloads,
// the software regex scan otherwise. It reports false when the statement
// must go to the general pipeline instead.
func (e *Engine) planRegexCount(p *physical, tbl *mdb.Table, detail string, hp *hwPredicate,
	scan func(func() (*mdb.Selection, error)) (*mdb.Selection, error)) bool {
	st := p.st
	_, hasUDF := e.DB.UDF("regexp_fpga")
	// Cost-based placement (§9): the decision is made at plan time and
	// cached — a plan-cache hit reuses the recorded choice instead of
	// re-running the estimator. The explicit operator is hardware by
	// construction; its record is built when it runs.
	var rec *explain.Record
	offload, placement, path := hp.forced, "fpga", "udf"
	if !hp.forced && e.Advisor != nil && hasUDF {
		if p.hit && p.entry.advised {
			rec = p.entry.rec.Clone()
			offload = p.entry.offload
		} else {
			rec, offload = e.adviseRecord(hp.pattern, tbl.Rows(), avgStringLen(tbl, hp.column))
			p.entry.advised = true
			p.entry.offload = offload
			if rec != nil {
				p.entry.rec = rec.Clone()
			}
		}
		if rec != nil && rec.Chosen != "" {
			placement = rec.Chosen
		}
		path = "regexp->udf"
	}
	switch {
	case offload && !hasUDF:
		// No hardware attached: the general evaluator runs the
		// hardware-equivalent automaton row by row.
		return false
	case offload:
		var op *plan.FPGARegexScan
		op = plan.NewFPGARegexScan(detail, placement, func(ctx context.Context) (plan.ScanOut, error) {
			out, err := e.DB.CallUDF(explain.WithRecord(ctx, rec),
				"regexp_fpga", tbl, hp.column, hp.pattern)
			if err != nil {
				return plan.ScanOut{}, err
			}
			n := out.Matches
			if hp.selectsZero {
				n = out.Result.Count() - n
			}
			st.work.Add(out.Work)
			st.udf = out
			st.decision = out.Decision
			if d := out.Decision; d != nil {
				if d.Chosen == "hybrid" {
					op.Info().Placement = "hybrid"
				}
				if d.SharedScan {
					op.Info().Shared = true
				}
			}
			return plan.ScanOut{Tally: int64(n), TallyOnly: true}, nil
		})
		st.decision = rec
		p.countPlan(op, path)
	default:
		op := plan.NewSoftRegexFilter(detail, func(ctx context.Context) (plan.ScanOut, error) {
			sel, err := scan(func() (*mdb.Selection, error) {
				return e.DB.SelectRegexp(tbl, hp.column, hp.pattern, false)
			})
			if err != nil {
				return plan.ScanOut{}, err
			}
			if rec != nil {
				// The predicate stayed in software: the realized cost
				// is the scan's own work, priced by the calibrated
				// model.
				e.Advisor.FinishSoftware(rec, sel.Work)
			}
			st.work.Add(sel.Work)
			return plan.ScanOut{Tally: int64(sel.Count()), TallyOnly: true}, nil
		})
		st.decision = rec
		p.countPlan(op, "regexp")
	}
	return true
}

// planGeneral compiles the general pipeline: Scan/HashJoin source, Filter,
// GroupAggregate or Project, OrderBy, Limit. One evaluator is shared by the
// filter, projection and aggregation closures so compiled-matcher caches
// and work counters behave exactly like the legacy single-evaluator
// pipeline.
func (e *Engine) planGeneral(p *physical) error {
	stmt, st := p.stmt, p.st
	src, cols, err := e.planFrom(p, stmt.From)
	if err != nil {
		return err
	}
	pipeEv := newEvaluator(&relation{cols: cols})
	st.evs = append(st.evs, pipeEv)
	var cur plan.Operator = src
	p.srcOp = src

	if stmt.Where != nil {
		f := plan.NewFilter(cur, formatExpr(stmt.Where), func(row []any) (bool, error) {
			ok, err := pipeEv.evalBool(stmt.Where, row)
			if err != nil {
				return false, err
			}
			pipeEv.work.Rows++
			return ok, nil
		})
		p.filterOp = f
		cur = f
	}

	agg := len(stmt.GroupBy) > 0 || hasAggregate(stmt.Items)
	var outCols []string
	if agg {
		for i, it := range stmt.Items {
			outCols = append(outCols, colAlias(it, fmt.Sprintf("col%d", i+1)))
		}
		detail := "global"
		if len(stmt.GroupBy) > 0 {
			var keys []string
			for _, g := range stmt.GroupBy {
				keys = append(keys, formatExpr(g))
			}
			detail = "group by " + strings.Join(keys, ", ")
		}
		g := plan.NewGroupAggregate(cur, detail)
		g.Fold = func(rows [][]any) ([][]any, error) {
			res, err := e.aggregate(stmt, &relation{cols: cols, rows: rows}, pipeEv)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}
		p.aggOp, p.aggName = g, "aggregate"
		cur = g
	} else {
		for i, it := range stmt.Items {
			if it.Star {
				for _, c := range cols {
					outCols = append(outCols, c.name)
				}
				continue
			}
			outCols = append(outCols, colAlias(it, fmt.Sprintf("col%d", i+1)))
		}
		pr := plan.NewProject(cur, strings.Join(outCols, ", "))
		pr.Map = func(row []any) ([]any, error) {
			var out []any
			for _, it := range stmt.Items {
				if it.Star {
					out = append(out, row...)
					continue
				}
				v, err := pipeEv.eval(it.Expr, row)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		}
		pr.OnEmpty = func() error {
			// Validate column references even on empty input so that
			// typos fail deterministically.
			nilRow := make([]any, len(cols))
			for _, it := range stmt.Items {
				if it.Star {
					continue
				}
				if _, err := pipeEv.eval(it.Expr, nilRow); err != nil {
					return err
				}
			}
			return nil
		}
		p.aggOp, p.aggName = pr, "project"
		cur = pr
	}

	if len(stmt.OrderBy) > 0 {
		var keys []string
		for _, o := range stmt.OrderBy {
			k := formatExpr(o.Expr)
			if o.Desc {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		ob := plan.NewOrderBy(cur, strings.Join(keys, ", "))
		ob.Sort = func(rows [][]any) ([][]any, error) {
			tmp := &Result{Cols: outCols, Rows: rows}
			if err := orderBy(tmp, stmt.OrderBy); err != nil {
				return nil, err
			}
			return tmp.Rows, nil
		}
		p.orderOp = ob
		cur = ob
	}
	if stmt.Limit >= 0 {
		cur = plan.NewLimit(cur, int64(stmt.Limit))
	}
	p.root = cur
	p.cols = outCols
	return nil
}

// planFrom compiles a table reference into a source operator and its
// plan-time column layout.
func (e *Engine) planFrom(p *physical, ref TableRef) (plan.Operator, []colMeta, error) {
	st := p.st
	switch t := ref.(type) {
	case *BaseTable:
		cols, err := e.fromColMetas(t)
		if err != nil {
			return nil, nil, err
		}
		op := plan.NewScan(strings.ToLower(t.Name), func(ctx context.Context) (plan.ScanOut, error) {
			rel, err := e.materializeBase(t)
			if err != nil {
				return plan.ScanOut{}, err
			}
			return plan.ScanOut{Rows: rel.rows}, nil
		})
		return op, cols, nil
	case *SubqueryTable:
		cols, err := e.fromColMetas(t)
		if err != nil {
			return nil, nil, err
		}
		var op *plan.Scan
		op = plan.NewScan(strings.ToLower(t.Alias)+" (subquery)", func(ctx context.Context) (plan.ScanOut, error) {
			sub, err := e.exec(ctx, t.Query, telemetry.StartSpan("query"))
			if err != nil {
				return plan.ScanOut{}, err
			}
			st.work.Add(sub.Work)
			if st.udf == nil {
				st.udf = sub.UDF
			}
			op.Sub = sub.Plan
			return plan.ScanOut{Rows: sub.Rows}, nil
		})
		return op, cols, nil
	case *JoinTable:
		return e.planJoin(p, t)
	}
	return nil, nil, fmt.Errorf("sql: unsupported table reference %T", ref)
}

// planJoin compiles a hash join. The ON tree is normalized before conjunct
// splitting, so nested or negated conjunctions still surface their
// equi-key and their pushable right-side residuals.
func (e *Engine) planJoin(p *physical, j *JoinTable) (plan.Operator, []colMeta, error) {
	st := p.st
	leftOp, leftCols, err := e.planFrom(p, j.Left)
	if err != nil {
		return nil, nil, err
	}
	rightOp, rightCols, err := e.planFrom(p, j.Right)
	if err != nil {
		return nil, nil, err
	}
	leftRel := &relation{cols: leftCols}
	rightRel := &relation{cols: rightCols}
	outCols := append(append([]colMeta{}, leftCols...), rightCols...)
	outRel := &relation{cols: outCols}

	conjuncts := splitConjuncts(normalizePredicate(j.On))
	lk, rk, residual, err := findEquiKey(leftRel, rightRel, conjuncts)
	if err != nil {
		return nil, nil, err
	}
	// Push residual predicates that only touch the build (right) side
	// below the hash table — the Q13 NOT LIKE case. Mixed residuals
	// evaluate per joined pair.
	var rightOnly, mixed []Expr
	for _, c := range residual {
		if exprUsesOnly(c, rightRel) {
			rightOnly = append(rightOnly, c)
		} else {
			mixed = append(mixed, c)
		}
	}
	rightEval := newEvaluator(rightRel)
	pairEval := newEvaluator(outRel)
	st.evs = append(st.evs, rightEval, pairEval)

	detail := metaName(leftCols[lk]) + " = " + metaName(rightCols[rk])
	if j.LeftOuter {
		detail = "left outer " + detail
	}
	op := plan.NewHashJoin(leftOp, rightOp, detail)
	op.LeftKey = func(row []any) (any, error) { return row[lk], nil }
	op.RightKey = func(row []any) (any, error) { return row[rk], nil }
	op.RightWidth = len(rightCols)
	op.LeftOuter = j.LeftOuter
	if len(rightOnly) > 0 {
		op.RightPre = func(row []any) (bool, error) {
			for _, c := range rightOnly {
				v, err := rightEval.evalBool(c, row)
				if err != nil || !v {
					return false, err
				}
			}
			return true, nil
		}
	}
	if len(mixed) > 0 {
		op.Pair = func(pair []any) (bool, error) {
			for _, c := range mixed {
				v, err := pairEval.evalBool(c, pair)
				if err != nil || !v {
					return false, err
				}
			}
			return true, nil
		}
	}
	op.Account = func(l, r int) { st.work.Rows += l + r }
	return op, outCols, nil
}

// normalizePredicate rewrites the boolean skeleton of a predicate into
// conjunction-friendly form before conjunct splitting: double negations
// drop and De Morgan pushes NOT through AND/OR, so a parenthesized or
// negated conjunction still yields its individual conjuncts for pushdown
// and equi-key extraction. Only rewrites that are exact under the
// evaluator's two-valued semantics (NULL collapses to false) are applied;
// leaves are returned by identity so compiled-matcher caches keyed on AST
// nodes keep working.
func normalizePredicate(e Expr) Expr {
	switch x := e.(type) {
	case *NotExpr:
		sub := normalizePredicate(x.Sub)
		switch s := sub.(type) {
		case *NotExpr:
			return s.Sub
		case *BinaryExpr:
			switch s.Op {
			case "AND":
				return &BinaryExpr{Op: "OR",
					Left:  normalizePredicate(&NotExpr{Sub: s.Left}),
					Right: normalizePredicate(&NotExpr{Sub: s.Right})}
			case "OR":
				return &BinaryExpr{Op: "AND",
					Left:  normalizePredicate(&NotExpr{Sub: s.Left}),
					Right: normalizePredicate(&NotExpr{Sub: s.Right})}
			}
		}
		return &NotExpr{Sub: sub}
	case *BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			return &BinaryExpr{Op: x.Op,
				Left:  normalizePredicate(x.Left),
				Right: normalizePredicate(x.Right)}
		}
	}
	return e
}

// outputColNames computes a statement's output column names without
// executing it — the plan-time view of what the legacy project/aggregate
// stages would emit.
func (e *Engine) outputColNames(stmt *SelectStmt) ([]string, error) {
	agg := len(stmt.GroupBy) > 0 || hasAggregate(stmt.Items)
	var out []string
	for i, it := range stmt.Items {
		if it.Star && !agg {
			metas, err := e.fromColMetas(stmt.From)
			if err != nil {
				return nil, err
			}
			for _, m := range metas {
				out = append(out, m.name)
			}
			continue
		}
		out = append(out, colAlias(it, fmt.Sprintf("col%d", i+1)))
	}
	return out, nil
}

// fromColMetas computes a table reference's column layout statically.
func (e *Engine) fromColMetas(ref TableRef) ([]colMeta, error) {
	switch t := ref.(type) {
	case *BaseTable:
		tbl, err := e.DB.Table(t.Name)
		if err != nil {
			return nil, err
		}
		alias := strings.ToLower(t.Alias)
		if alias == "" {
			alias = strings.ToLower(t.Name)
		}
		var cols []colMeta
		for _, c := range tbl.Columns() {
			cols = append(cols, colMeta{table: alias, name: strings.ToLower(c.Name)})
		}
		return cols, nil
	case *SubqueryTable:
		names, err := e.outputColNames(t.Query)
		if err != nil {
			return nil, err
		}
		if len(t.Columns) > 0 {
			if len(t.Columns) != len(names) {
				return nil, fmt.Errorf(
					"sql: derived table %s has %d column aliases for %d columns",
					t.Alias, len(t.Columns), len(names))
			}
			names = t.Columns
		}
		var cols []colMeta
		for _, n := range names {
			cols = append(cols, colMeta{
				table: strings.ToLower(t.Alias),
				name:  strings.ToLower(n),
			})
		}
		return cols, nil
	case *JoinTable:
		l, err := e.fromColMetas(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.fromColMetas(t.Right)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	}
	return nil, fmt.Errorf("sql: unsupported table reference %T", ref)
}

func metaName(m colMeta) string {
	if m.table != "" {
		return m.table + "." + m.name
	}
	return m.name
}
