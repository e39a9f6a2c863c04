package experiments

import (
	"fmt"
	"io"

	"doppiodb/internal/mdb"
	"doppiodb/internal/sim"
	"doppiodb/internal/sql"
	"doppiodb/internal/workload"
)

// Figure-12 scale calibration (fitted to the figure's absolute values at
// SF 0.1; the preserved shapes are the 2× LIKE→ILIKE slowdown in MonetDB
// and the FPGA operator's ~30 % win with collation for free, §7.7).
const (
	q13ParallelBase = 1 * sim.Second          // join+aggregate, default pipeline
	q13SeqPipeBase  = 10500 * sim.Millisecond // join+aggregate under sequential_pipe (HUDF mode)
	q13ScanPerOrder = 93_333 * sim.Nanosecond // o_comment LIKE scan per order row
	q13FPGAScan     = 3 * sim.Millisecond     // comment column through the regex engines
)

// q13SF is the paper's scale factor.
const q13SF = 0.1

// Figure12Row is one variant's response time.
type Figure12Row struct {
	Variant string
	MonetDB float64 // seconds
	FPGA    float64
}

// Figure12Result reproduces Figure 12: TPC-H Q13 with LIKE vs ILIKE.
type Figure12Result struct {
	Rows []Figure12Row
	// Groups is the number of (c_count, custdist) result groups — the
	// functional answer, identical across variants by construction.
	Groups int
}

const q13LIKE = `
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey)
  FROM customer
  LEFT OUTER JOIN orders ON c_custkey = o_custkey
    AND o_comment NOT LIKE '%special%requests%'
  GROUP BY c_custkey
) AS c_orders (c_custkey, c_count)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC`

const q13ILIKE = `
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey)
  FROM customer
  LEFT OUTER JOIN orders ON c_custkey = o_custkey
    AND NOT o_comment ILIKE '%special%requests%'
  GROUP BY c_custkey
) AS c_orders (c_custkey, c_count)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC`

const q13FPGA = `
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey)
  FROM customer
  LEFT OUTER JOIN orders ON c_custkey = o_custkey
    AND REGEXP_FPGA('special.*requests', o_comment) = 0
  GROUP BY c_custkey
) AS c_orders (c_custkey, c_count)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC`

// Figure12 runs TPC-H Q13 functionally at a reduced scale factor and
// reports response times at the paper's SF 0.1 through the calibrated
// model.
func Figure12(cfg Config) (*Figure12Result, error) {
	cfg = cfg.withDefaults()
	// Functional execution at a small SF keeps the experiment quick; the
	// reported times are at the paper's SF 0.1.
	funcSF := 0.01
	tp := workload.GenerateTPCH(cfg.Seed, funcSF, 0.01)
	db := cfg.newSoftwareDB()
	eng := sql.NewEngine(db)
	cust, err := db.CreateTable("customer", mdb.ColSpec{Name: "c_custkey", Kind: mdb.KindInt})
	if err != nil {
		return nil, err
	}
	for _, c := range tp.Customers {
		if err := cust.AppendRow(c.CustKey); err != nil {
			return nil, err
		}
	}
	ord, err := db.CreateTable("orders",
		mdb.ColSpec{Name: "o_orderkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_custkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_comment", Kind: mdb.KindString})
	if err != nil {
		return nil, err
	}
	for _, o := range tp.Orders {
		if err := ord.AppendRow(o.OrderKey, o.CustKey, o.Comment); err != nil {
			return nil, err
		}
	}

	like, err := eng.Query(q13LIKE)
	if err != nil {
		return nil, err
	}
	ilike, err := eng.Query(q13ILIKE)
	if err != nil {
		return nil, err
	}
	hw, err := eng.Query(q13FPGA)
	if err != nil {
		return nil, err
	}
	if len(like.Rows) != len(hw.Rows) || len(like.Rows) != len(ilike.Rows) {
		return nil, fmt.Errorf("experiments: Q13 group counts disagree: LIKE %d, ILIKE %d, FPGA %d",
			len(like.Rows), len(ilike.Rows), len(hw.Rows))
	}

	orders := int(float64(workload.OrdersPerSF) * q13SF)
	scan := sim.Time(orders) * q13ScanPerOrder
	out := &Figure12Result{Groups: len(like.Rows)}
	out.Rows = append(out.Rows,
		Figure12Row{
			Variant: "Original (LIKE)",
			MonetDB: (q13ParallelBase + scan).Seconds(),
			FPGA:    (q13SeqPipeBase + q13FPGAScan).Seconds(),
		},
		Figure12Row{
			Variant: "Case-Insensitive (ILIKE)",
			MonetDB: (q13ParallelBase + 2*scan).Seconds(),
			// Collation costs nothing on the FPGA (§6.4).
			FPGA: (q13SeqPipeBase + q13FPGAScan).Seconds(),
		},
	)
	return out, nil
}

// Render prints the comparison.
func (r *Figure12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: TPC-H Query 13, SF 0.1 (seconds)")
	fmt.Fprintf(w, "  %-28s %10s %10s\n", "variant", "MonetDB", "FPGA")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-28s %10.1f %10.1f\n", row.Variant, row.MonetDB, row.FPGA)
	}
	fmt.Fprintf(w, "  result groups: %d; paper shape: ILIKE doubles MonetDB, FPGA ~30%% faster than LIKE and case-insensitive for free\n", r.Groups)
}
