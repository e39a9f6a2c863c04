package sql

import (
	"context"
	"fmt"
	"strings"

	"doppiodb/internal/explain"
	"doppiodb/internal/mdb"
	"doppiodb/internal/perf"
	"doppiodb/internal/telemetry"
)

// This file is the pre-operator reference executor: the inline query path
// (fast-count shortcuts + materialize/filter/aggregate pipeline) that
// predates the internal/plan operator layer. The live query path compiles
// through planner.go; this one is retained verbatim so the old-vs-new
// equivalence sweep (plan_equivalence_test.go) can assert bit-identical
// results and EXPLAIN cost terms against it. Derived tables recurse through
// execLegacy, keeping the reference path closed under itself.

// execLegacy executes a statement on the reference inline executor.
func (e *Engine) execLegacy(ctx context.Context, stmt *SelectStmt, root *telemetry.Span) (*Result, error) {
	e.Tel.Counter("sql.queries_legacy").Inc()
	if res, ok, err := e.tryFastCount(ctx, stmt, root); err != nil || ok {
		if err != nil {
			return nil, err
		}
		return e.finish(res, root), nil
	}
	rel, work, udf, err := e.evalFrom(ctx, stmt.From)
	if err != nil {
		return nil, err
	}
	res, err := e.runPipeline(stmt, rel, root)
	if err != nil {
		return nil, err
	}
	res.Work.Add(work)
	if udf != nil {
		res.UDF = udf
	}
	return e.finish(res, root), nil
}

// tryFastCount recognizes SELECT count(*) FROM t WHERE <single string
// predicate> — the paper's microbenchmark shape — and runs it directly on
// the column engine without materializing rows.
func (e *Engine) tryFastCount(ctx context.Context, stmt *SelectStmt, root *telemetry.Span) (*Result, bool, error) {
	bt, ok := stmt.From.(*BaseTable)
	if !ok || stmt.Where == nil || len(stmt.GroupBy) != 0 ||
		len(stmt.OrderBy) != 0 || len(stmt.Items) != 1 || stmt.Items[0].Star {
		return nil, false, nil
	}
	cnt, ok := stmt.Items[0].Expr.(*FuncCall)
	if !ok || cnt.Name != "COUNT" || !cnt.Star {
		return nil, false, nil
	}
	tbl, err := e.DB.Table(bt.Name)
	if err != nil {
		return nil, false, err
	}
	alias := strings.ToLower(bt.Alias)
	if alias == "" {
		alias = strings.ToLower(bt.Name)
	}
	mk := func(n int, work perf.Work, path string, udf *mdb.UDFResult) *Result {
		return &Result{
			Cols:     []string{colAlias(stmt.Items[0], "count")},
			Rows:     [][]any{{int64(n)}},
			Work:     work,
			FastPath: path,
			UDF:      udf,
		}
	}
	// scan wraps a software column scan in a bat-scan span.
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
	switch w := stmt.Where.(type) {
	case *LikeExpr:
		col, ok := likeColumn(w, alias)
		if !ok {
			return nil, false, nil
		}
		sel, err := scan(func() (*mdb.Selection, error) {
			return e.DB.SelectLike(tbl, col, w.Pattern, w.Fold)
		})
		if err != nil {
			return nil, false, err
		}
		n := sel.Count()
		if w.Negated {
			n = tbl.Rows() - n
		}
		return mk(n, sel.Work, "like", nil), true, nil
	case *FuncCall:
		switch w.Name {
		case "REGEXP_LIKE":
			colExpr, pat, err := regexpArgs(w)
			if err != nil {
				return nil, false, err
			}
			ref, ok := colExpr.(*ColumnRef)
			if !ok {
				return nil, false, nil
			}
			// Cost-based placement (§9): route to the hardware
			// operator when the advisor predicts a win. The decision
			// record travels down the context so the core layer fills
			// its actuals instead of building a second record.
			var rec *explain.Record
			if e.Advisor != nil {
				if _, hasUDF := e.DB.UDF("regexp_fpga"); hasUDF {
					var offload bool
					rec, offload = e.adviseRecord(pat, tbl.Rows(), avgStringLen(tbl, ref.Column))
					if offload {
						out, err := e.DB.CallUDF(explain.WithRecord(ctx, rec),
							"regexp_fpga", tbl, ref.Column, pat)
						if err != nil {
							return nil, false, err
						}
						n := 0
						for i := 0; i < out.Result.Count(); i++ {
							if out.Result.Get(i) != 0 {
								n++
							}
						}
						res := mk(n, out.Work, "regexp->udf", out)
						res.Decision = out.Decision
						return res, true, nil
					}
				}
			}
			sel, err := scan(func() (*mdb.Selection, error) {
				return e.DB.SelectRegexp(tbl, ref.Column, pat, false)
			})
			if err != nil {
				return nil, false, err
			}
			if rec != nil {
				// The predicate stayed in software: the realized cost is
				// the scan's own work, priced by the calibrated model.
				e.Advisor.FinishSoftware(rec, sel.Work)
			}
			res := mk(sel.Count(), sel.Work, "regexp", nil)
			res.Decision = rec
			return res, true, nil
		case "CONTAINS":
			col, q, err := containsArgs(w, tbl)
			if err != nil {
				return nil, false, err
			}
			sel, err := scan(func() (*mdb.Selection, error) {
				return e.DB.SelectContains(tbl, col, q)
			})
			if err != nil {
				return nil, false, err
			}
			return mk(sel.Count(), sel.Work, "contains", nil), true, nil
		}
		return nil, false, nil
	case *BinaryExpr:
		// REGEXP_FPGA(pattern, col) <> 0 — the HUDF predicate.
		call, zero := fpgaPredicate(w)
		if call == nil {
			return nil, false, nil
		}
		colExpr, pat, err := regexpFPGAArgs(call)
		if err != nil {
			return nil, false, err
		}
		ref, ok := colExpr.(*ColumnRef)
		if !ok {
			return nil, false, nil
		}
		if _, hasUDF := e.DB.UDF("regexp_fpga"); !hasUDF {
			// No hardware attached: the general evaluator runs the
			// hardware-equivalent automaton row by row.
			return nil, false, nil
		}
		out, err := e.DB.CallUDF(ctx, "regexp_fpga", tbl, ref.Column, pat)
		if err != nil {
			return nil, false, err
		}
		n := 0
		for i := 0; i < out.Result.Count(); i++ {
			if out.Result.Get(i) != 0 {
				n++
			}
		}
		if zero { // `= 0`: non-matching rows
			n = out.Result.Count() - n
		}
		res := mk(n, out.Work, "udf", out)
		res.Decision = out.Decision
		return res, true, nil
	}
	return nil, false, nil
}

// evalFrom materializes a table reference.
func (e *Engine) evalFrom(ctx context.Context, ref TableRef) (*relation, perf.Work, *mdb.UDFResult, error) {
	switch t := ref.(type) {
	case *BaseTable:
		rel, err := e.materializeBase(t)
		return rel, perf.Work{}, nil, err
	case *SubqueryTable:
		sub, err := e.execLegacy(ctx, t.Query, telemetry.StartSpan("query"))
		if err != nil {
			return nil, perf.Work{}, nil, err
		}
		rel := &relation{rows: sub.Rows}
		names := sub.Cols
		if len(t.Columns) > 0 {
			if len(t.Columns) != len(sub.Cols) {
				return nil, perf.Work{}, nil, fmt.Errorf(
					"sql: derived table %s has %d column aliases for %d columns",
					t.Alias, len(t.Columns), len(sub.Cols))
			}
			names = t.Columns
		}
		for _, n := range names {
			rel.cols = append(rel.cols, colMeta{
				table: strings.ToLower(t.Alias),
				name:  strings.ToLower(n),
			})
		}
		return rel, sub.Work, sub.UDF, nil
	case *JoinTable:
		return e.evalJoin(ctx, t)
	}
	return nil, perf.Work{}, nil, fmt.Errorf("sql: unsupported table reference %T", ref)
}

// evalJoin runs a hash join, honoring LEFT OUTER semantics and evaluating
// residual ON conjuncts per candidate pair.
func (e *Engine) evalJoin(ctx context.Context, j *JoinTable) (*relation, perf.Work, *mdb.UDFResult, error) {
	left, lw, ludf, err := e.evalFrom(ctx, j.Left)
	if err != nil {
		return nil, perf.Work{}, nil, err
	}
	right, rw, rudf, err := e.evalFrom(ctx, j.Right)
	if err != nil {
		return nil, perf.Work{}, nil, err
	}
	work := lw
	work.Add(rw)
	udf := ludf
	if udf == nil {
		udf = rudf
	}

	out := &relation{cols: append(append([]colMeta{}, left.cols...), right.cols...)}
	conjuncts := splitConjuncts(j.On)
	lk, rk, residual, err := findEquiKey(left, right, conjuncts)
	if err != nil {
		return nil, work, udf, err
	}

	// Pre-evaluate residual predicates on the probe (right) side where
	// they only touch right columns — the Q13 NOT LIKE case. This keeps
	// the filter work linear instead of per candidate pair.
	rightOK := make([]bool, len(right.rows))
	rightEval := newEvaluator(right)
	var rightOnly, mixed []Expr
	for _, c := range residual {
		if exprUsesOnly(c, right) {
			rightOnly = append(rightOnly, c)
		} else {
			mixed = append(mixed, c)
		}
	}
	for i, row := range right.rows {
		ok := true
		for _, c := range rightOnly {
			v, err := rightEval.evalBool(c, row)
			if err != nil {
				return nil, work, udf, err
			}
			if !v {
				ok = false
				break
			}
		}
		rightOK[i] = ok
	}
	work.Add(rightEval.work)

	// Build the hash table on the right side.
	build := make(map[any][]int, len(right.rows))
	for i, row := range right.rows {
		if !rightOK[i] {
			continue
		}
		k := row[rk]
		if k == nil {
			continue
		}
		build[k] = append(build[k], i)
	}

	pairEval := newEvaluator(out)
	nulls := make([]any, len(right.cols))
	for _, lrow := range left.rows {
		matched := false
		k := lrow[lk]
		if k != nil {
			for _, ri := range build[k] {
				pair := append(append(make([]any, 0, len(out.cols)), lrow...), right.rows[ri]...)
				ok := true
				for _, c := range mixed {
					v, err := pairEval.evalBool(c, pair)
					if err != nil {
						return nil, work, udf, err
					}
					if !v {
						ok = false
						break
					}
				}
				if ok {
					out.rows = append(out.rows, pair)
					matched = true
				}
			}
		}
		if !matched && j.LeftOuter {
			out.rows = append(out.rows, append(append(make([]any, 0, len(out.cols)), lrow...), nulls...))
		}
	}
	work.Add(pairEval.work)
	work.Rows += len(left.rows) + len(right.rows)
	return out, work, udf, nil
}

// runPipeline applies WHERE, GROUP BY, projection, ORDER BY and LIMIT.
func (e *Engine) runPipeline(stmt *SelectStmt, rel *relation, root *telemetry.Span) (*Result, error) {
	ev := newEvaluator(rel)
	if stmt.Where != nil {
		sp := root.StartChild("where")
		sp.SetAttr("rows_in", int64(len(rel.rows)))
		var kept [][]any
		for _, row := range rel.rows {
			ok, err := ev.evalBool(stmt.Where, row)
			if err != nil {
				return nil, err
			}
			ev.work.Rows++
			if ok {
				kept = append(kept, row)
			}
		}
		rel = &relation{cols: rel.cols, rows: kept}
		ev.rel = rel
		sp.End()
		sp.SetAttr("rows_out", int64(len(kept)))
	}

	var res *Result
	var err error
	var sp *telemetry.Span
	if len(stmt.GroupBy) > 0 || hasAggregate(stmt.Items) {
		sp = root.StartChild("aggregate")
		res, err = e.aggregate(stmt, rel, ev)
	} else {
		sp = root.StartChild("project")
		res, err = e.project(stmt, rel, ev)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rows_in", int64(len(rel.rows)))
	sp.SetAttr("rows_out", int64(len(res.Rows)))
	res.Work.Add(ev.work)

	if len(stmt.OrderBy) > 0 {
		ob := root.StartChild("order-by")
		err := orderBy(res, stmt.OrderBy)
		ob.End()
		ob.SetAttr("rows", int64(len(res.Rows)))
		if err != nil {
			return nil, err
		}
	}
	if stmt.Limit >= 0 && len(res.Rows) > stmt.Limit {
		res.Rows = res.Rows[:stmt.Limit]
	}
	return res, nil
}

// project evaluates a plain projection.
func (e *Engine) project(stmt *SelectStmt, rel *relation, ev *evaluator) (*Result, error) {
	res := &Result{}
	for i, it := range stmt.Items {
		if it.Star {
			for _, c := range rel.cols {
				res.Cols = append(res.Cols, c.name)
			}
			continue
		}
		res.Cols = append(res.Cols, colAlias(it, fmt.Sprintf("col%d", i+1)))
	}
	if len(rel.rows) == 0 {
		// Validate column references even on empty input so that
		// typos fail deterministically.
		nilRow := make([]any, len(rel.cols))
		for _, it := range stmt.Items {
			if it.Star {
				continue
			}
			if _, err := ev.eval(it.Expr, nilRow); err != nil {
				return nil, err
			}
		}
	}
	for _, row := range rel.rows {
		var out []any
		for _, it := range stmt.Items {
			if it.Star {
				out = append(out, row...)
				continue
			}
			v, err := ev.eval(it.Expr, row)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}
