package sql

import (
	"context"

	"doppiodb/internal/explain"
	"doppiodb/internal/plan"
	"doppiodb/internal/telemetry"
)

// adviseRecord runs the cost model for a predicate. Estimation errors
// conservatively keep the predicate in software.
func (e *Engine) adviseRecord(pattern string, rows, avgLen int) (*explain.Record, bool) {
	rec, err := e.Advisor.ExplainCost(pattern, rows, avgLen)
	if err != nil {
		return nil, false
	}
	return rec, rec.Offloads()
}

// explainQuery serves EXPLAIN [ANALYZE] <select>: one "plan" output column,
// one row per line of the decision record. Plain EXPLAIN prices the
// candidates without executing; ANALYZE executes the inner statement and
// appends the predicted-vs-actual table with per-term relative error.
func (e *Engine) explainQuery(ctx context.Context, stmt *SelectStmt, root *telemetry.Span) (*Result, error) {
	e.Tel.Counter("sql.explain").Inc()
	inner := *stmt
	inner.Explain, inner.Analyze = false, false

	var rec *explain.Record
	res := &Result{Cols: []string{"plan"}, FastPath: "explain"}
	if stmt.Analyze {
		out, err := e.exec(ctx, &inner, root.StartChild("analyze-exec"))
		if err != nil {
			return nil, err
		}
		rec = out.Decision
		res.UDF = out.UDF
		res.Work = out.Work
		res.Plan = out.Plan
	} else {
		// Compile without executing: the operator tree plus the
		// plan-time placement decision. Statement shapes whose decision
		// only exists at run time (the forced REGEXP_FPGA operator) fall
		// back to pricing the predicate directly.
		pl, err := e.plan(&inner, root)
		if err != nil {
			return nil, err
		}
		rec = pl.st.decision
		if rec == nil {
			r, err := e.planOnlyRecord(&inner)
			if err != nil {
				return nil, err
			}
			rec = r
		}
		res.Plan = plan.Snapshot(pl.root)
	}
	res.Decision = rec

	recLines := rec.Lines()
	if len(recLines) == 0 {
		recLines = []string{"no decision record: the predicate is not hardware-eligible, or no cost-model advisor is attached"}
	}
	if stmt.Analyze {
		recLines = append(recLines, rec.AnalyzeLines()...)
	}
	var lines []string
	if res.Plan != nil {
		lines = append(lines, res.Plan.Lines(stmt.Analyze)...)
		lines = append(lines, "")
	}
	lines = append(lines, recLines...)
	for _, l := range lines {
		res.Rows = append(res.Rows, []any{l})
	}
	return e.finish(res, root), nil
}

// planOnlyRecord prices the candidates of a statement's hardware-eligible
// predicate (hardwarePredicate over a base table) without executing it.
// Statements outside the recognized shapes (or engines without an advisor)
// yield a nil record, which explainQuery renders as an explanatory line.
func (e *Engine) planOnlyRecord(stmt *SelectStmt) (*explain.Record, error) {
	bt, isBase := stmt.From.(*BaseTable)
	if e.Advisor == nil || !isBase {
		return nil, nil
	}
	tbl, err := e.DB.Table(bt.Name)
	if err != nil {
		return nil, err
	}
	hp, err := hardwarePredicate(stmt.Where)
	if err != nil || hp == nil {
		return nil, err
	}
	rec, err := e.Advisor.ExplainCost(hp.pattern, tbl.Rows(), avgStringLen(tbl, hp.column))
	if err != nil {
		return nil, err
	}
	if hp.forced && !rec.Offloads() {
		rec.ForceHardware("REGEXP_FPGA invoked explicitly; cost model preferred software")
	}
	return rec, nil
}
