package sql

import (
	"fmt"
	"strings"

	"doppiodb/internal/perf"
	"doppiodb/internal/pu"
	"doppiodb/internal/softregex"
	"doppiodb/internal/strmatch"
	"doppiodb/internal/token"
)

// colMeta names one column of a materialized relation.
type colMeta struct {
	table string // alias or table name, lower-cased
	name  string // column name, lower-cased
}

// relation is a materialized row set.
type relation struct {
	cols []colMeta
	rows [][]any // values: int64 | string | nil
}

func (r *relation) resolve(ref *ColumnRef) (int, error) {
	t := strings.ToLower(ref.Table)
	c := strings.ToLower(ref.Column)
	found := -1
	for i, m := range r.cols {
		if m.name != c {
			continue
		}
		if t != "" && m.table != t {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", ref.Column)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", refString(ref))
	}
	return found, nil
}

func refString(ref *ColumnRef) string {
	if ref.Table != "" {
		return ref.Table + "." + ref.Column
	}
	return ref.Column
}

// evaluator evaluates expressions over relation rows, caching compiled
// pattern matchers per AST node.
type evaluator struct {
	rel  *relation
	like map[*LikeExpr]*strmatch.LikePattern
	re   map[*FuncCall]*softregex.Backtracker
	hw   map[*FuncCall]func(string) int64
	work perf.Work
}

func newEvaluator(rel *relation) *evaluator {
	return &evaluator{
		rel:  rel,
		like: make(map[*LikeExpr]*strmatch.LikePattern),
		re:   make(map[*FuncCall]*softregex.Backtracker),
		hw:   make(map[*FuncCall]func(string) int64),
	}
}

// eval computes the value of e on row; aggregates are rejected here (they
// are handled by the grouping stage).
func (ev *evaluator) eval(e Expr, row []any) (any, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *StringLit:
		return x.Val, nil
	case *NullLit:
		return nil, nil
	case *ColumnRef:
		i, err := ev.rel.resolve(x)
		if err != nil {
			return nil, err
		}
		return row[i], nil
	case *BinaryExpr:
		return ev.evalBinary(x, row)
	case *NotExpr:
		v, err := ev.evalBool(x.Sub, row)
		if err != nil {
			return nil, err
		}
		return !v, nil
	case *IsNullExpr:
		v, err := ev.eval(x.Operand, row)
		if err != nil {
			return nil, err
		}
		isNull := v == nil
		if x.Negated {
			return !isNull, nil
		}
		return isNull, nil
	case *LikeExpr:
		return ev.evalLike(x, row)
	case *FuncCall:
		return ev.evalCall(x, row)
	}
	return nil, fmt.Errorf("sql: cannot evaluate %T", e)
}

// evalBool coerces to boolean (nil → false).
func (ev *evaluator) evalBool(e Expr, row []any) (bool, error) {
	v, err := ev.eval(e, row)
	if err != nil {
		return false, err
	}
	switch b := v.(type) {
	case bool:
		return b, nil
	case nil:
		return false, nil
	case int64:
		return b != 0, nil
	}
	return false, fmt.Errorf("sql: non-boolean predicate value %T", v)
}

func (ev *evaluator) evalBinary(x *BinaryExpr, row []any) (any, error) {
	switch x.Op {
	case "AND":
		l, err := ev.evalBool(x.Left, row)
		if err != nil || !l {
			return false, err
		}
		return ev.evalBool(x.Right, row)
	case "OR":
		l, err := ev.evalBool(x.Left, row)
		if err != nil || l {
			return l, err
		}
		return ev.evalBool(x.Right, row)
	}
	l, err := ev.eval(x.Left, row)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(x.Right, row)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/":
		if l == nil || r == nil {
			return nil, nil // arithmetic over NULL is NULL
		}
		li, ok1 := l.(int64)
		ri, ok2 := r.(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: arithmetic over %T and %T", l, r)
		}
		switch x.Op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		default:
			if ri == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			return li / ri, nil
		}
	}
	if l == nil || r == nil {
		return false, nil // SQL UNKNOWN collapsed to false
	}
	cmp, err := compare(l, r)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=":
		return cmp == 0, nil
	case "<>":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
}

func compare(a, b any) (int, error) {
	switch av := a.(type) {
	case int64:
		bv, ok := b.(int64)
		if !ok {
			return 0, fmt.Errorf("sql: comparing int with %T", b)
		}
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		}
		return 0, nil
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, fmt.Errorf("sql: comparing string with %T", b)
		}
		return strings.Compare(av, bv), nil
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return 0, fmt.Errorf("sql: comparing bool with %T", b)
		}
		ai, bi := 0, 0
		if av {
			ai = 1
		}
		if bv {
			bi = 1
		}
		return ai - bi, nil
	}
	return 0, fmt.Errorf("sql: cannot compare %T", a)
}

func (ev *evaluator) evalLike(x *LikeExpr, row []any) (any, error) {
	p, ok := ev.like[x]
	if !ok {
		var err error
		p, err = strmatch.CompileLike(x.Pattern, x.Fold)
		if err != nil {
			return nil, err
		}
		ev.like[x] = p
	}
	v, err := ev.eval(x.Operand, row)
	if err != nil {
		return nil, err
	}
	s, ok := v.(string)
	if !ok {
		if v == nil {
			return false, nil
		}
		return nil, fmt.Errorf("sql: LIKE over %T", v)
	}
	ev.work.Comparisons += uint64(len(s)/3 + 8*p.Segments())
	ev.work.Bytes += uint64(len(s))
	m := p.MatchString(s)
	if x.Negated {
		return !m, nil
	}
	return m, nil
}

func (ev *evaluator) evalCall(x *FuncCall, row []any) (any, error) {
	switch x.Name {
	case "REGEXP_LIKE":
		col, pat, err := regexpArgs(x)
		if err != nil {
			return nil, err
		}
		bt, ok := ev.re[x]
		if !ok {
			bt, err = softregex.NewBacktracker(pat, false)
			if err != nil {
				return nil, err
			}
			ev.re[x] = bt
		}
		v, err := ev.eval(col, row)
		if err != nil {
			return nil, err
		}
		s, ok := v.(string)
		if !ok {
			return false, nil
		}
		pos, steps := bt.MatchString(s)
		ev.work.Steps += steps
		ev.work.RegexRows++
		ev.work.Bytes += uint64(len(s))
		return pos != 0, nil
	case "REGEXP_FPGA":
		// Row-at-a-time fallback (the BAT-level fast path is in
		// exec.go): evaluate with the hardware-equivalent token
		// automaton and return the match index as the UDF would.
		col, pat, err := regexpFPGAArgs(x)
		if err != nil {
			return nil, err
		}
		match, ok := ev.hw[x]
		if !ok {
			prog, err := token.CompilePattern(pat, token.Options{})
			if err != nil {
				return nil, err
			}
			// The PU model where the program fits its circuit, else
			// the reference interpreter, saturated like a PU result.
			if unit, err := pu.New(prog); err == nil {
				match = func(s string) int64 { return int64(unit.MatchString(s)) }
			} else {
				match = func(s string) int64 { return min(int64(prog.MatchString(s)), 0xFFFF) }
			}
			ev.hw[x] = match
		}
		v, err := ev.eval(col, row)
		if err != nil {
			return nil, err
		}
		s, ok := v.(string)
		if !ok {
			return int64(0), nil
		}
		return match(s), nil
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return nil, fmt.Errorf("sql: aggregate %s outside GROUP BY context", x.Name)
	}
	return nil, fmt.Errorf("sql: unknown function %q", x.Name)
}

// regexpArgs extracts (column, pattern) from REGEXP_LIKE's arguments, which
// the paper writes in both orders.
func regexpArgs(x *FuncCall) (Expr, string, error) {
	if len(x.Args) != 2 {
		return nil, "", fmt.Errorf("sql: REGEXP_LIKE wants 2 arguments")
	}
	if s, ok := x.Args[1].(*StringLit); ok {
		return x.Args[0], s.Val, nil
	}
	if s, ok := x.Args[0].(*StringLit); ok {
		return x.Args[1], s.Val, nil
	}
	return nil, "", fmt.Errorf("sql: REGEXP_LIKE needs a pattern literal")
}

// regexpFPGAArgs extracts (column, pattern) from REGEXP_FPGA(pattern, col).
func regexpFPGAArgs(x *FuncCall) (Expr, string, error) {
	if len(x.Args) != 2 {
		return nil, "", fmt.Errorf("sql: REGEXP_FPGA wants 2 arguments")
	}
	if s, ok := x.Args[0].(*StringLit); ok {
		return x.Args[1], s.Val, nil
	}
	if s, ok := x.Args[1].(*StringLit); ok {
		return x.Args[0], s.Val, nil
	}
	return nil, "", fmt.Errorf("sql: REGEXP_FPGA needs a pattern literal")
}
