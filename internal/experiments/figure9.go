package experiments

import (
	"fmt"
	"io"

	"doppiodb/internal/mdb"
	"doppiodb/internal/perf"
	"doppiodb/internal/workload"
)

// queryDef describes one of the evaluation queries.
type queryDef struct {
	Name    string
	Kind    workload.HitKind
	Pattern string // regex form
	Like    string // non-empty: Q1 runs via LIKE on the CPU engines
}

// evalQueries are Q1–Q4 of §7.1.1.
func evalQueries() []queryDef {
	return []queryDef{
		{Name: "Q1", Kind: workload.HitQ1, Pattern: workload.Q1Regex, Like: workload.Q1Like},
		{Name: "Q2", Kind: workload.HitQ2, Pattern: workload.Q2},
		{Name: "Q3", Kind: workload.HitQ3, Pattern: workload.Q3},
		{Name: "Q4", Kind: workload.HitQ4, Pattern: workload.Q4},
	}
}

// figure9Sizes is the x axis: 320 k to 10 M records.
var figure9Sizes = []int{320_000, 625_000, 1_250_000, 2_500_000, 5_000_000, 10_000_000}

// Figure9Point is one (query, size) cell.
type Figure9Point struct {
	Query     string
	Records   int
	MonetDB   float64 // seconds
	DBx       float64
	FPGA      float64
	FPGAIdeal float64
}

// Figure9Result reproduces Figures 9a/9b: response time vs input size and
// complexity.
type Figure9Result struct {
	Points []Figure9Point
}

// perRowWork measures the per-row software work of a query on sampled data.
func perRowWork(cfg Config, q queryDef) (perf.Work, error) {
	rows, _ := genTable(cfg, q.Kind)
	db := cfg.newSoftwareDB()
	tbl, err := db.LoadAddressTable("address_table", rows)
	if err != nil {
		return perf.Work{}, err
	}
	var sel *mdb.Selection
	if q.Like != "" {
		sel, err = db.SelectLike(tbl, "address_string", q.Like, false)
	} else {
		sel, err = db.SelectRegexp(tbl, "address_string", q.Pattern, false)
	}
	if err != nil {
		return perf.Work{}, err
	}
	return sel.Work, nil
}

// Figure9 runs the experiment. The same work model drives both the MonetDB
// and DBx lines (they run identical matching code; the engines differ in
// per-row overhead and parallelism).
func Figure9(cfg Config) (*Figure9Result, error) {
	cfg = cfg.withDefaults()
	model := perf.Default()
	out := &Figure9Result{}
	for _, q := range evalQueries() {
		work, err := perRowWork(cfg, q)
		if err != nil {
			return nil, err
		}
		for _, n := range figure9Sizes {
			scaled := scaleWork(work, cfg.SampleRows, n)
			out.Points = append(out.Points, Figure9Point{
				Query:     q.Name,
				Records:   n,
				MonetDB:   model.MonetDBScan(scaled, true).Seconds(),
				DBx:       model.DBXScan(scaled).Seconds(),
				FPGA:      fpgaQueryTime(model, n, workload.DefaultStrLen, 4, false).Seconds(),
				FPGAIdeal: fpgaQueryTime(model, n, workload.DefaultStrLen, 4, true).Seconds(),
			})
		}
	}
	return out, nil
}

// Render prints both panels.
func (r *Figure9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: response time vs input size and complexity (seconds)")
	fmt.Fprintf(w, "  %-4s %10s %12s %12s %12s %12s\n",
		"Q", "records", "MonetDB", "DBx", "FPGA", "FPGA(ideal)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-4s %10d %12.3f %12.3f %12.4f %12.4f\n",
			p.Query, p.Records, p.MonetDB, p.DBx, p.FPGA, p.FPGAIdeal)
	}
}
