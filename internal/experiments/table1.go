package experiments

import (
	"fmt"
	"io"

	"doppiodb/internal/perf"
	"doppiodb/internal/rowdb"
	"doppiodb/internal/workload"
)

// Table1Row is one operator's response times (seconds).
type Table1Row struct {
	Query        string
	MonetDB      float64
	DBx          float64
	PaperMonetDB float64 // published value; 0 = not published
	PaperDBx     float64
}

// Table1Result reproduces Table 1: string matching with CONTAINS, LIKE and
// REGEXP_LIKE on 2.5 M records.
type Table1Result struct {
	Rows      []Table1Row
	IndexCost float64 // CONTAINS index (re)build, seconds (§7.2: >20 min)
}

// Table1 runs the experiment.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	model := perf.Default()
	rows, _ := genTable(cfg, workload.HitTable1)

	// MonetDB side.
	mdbDB := cfg.newSoftwareDB()
	mt, err := mdbDB.LoadAddressTable("address_table", rows)
	if err != nil {
		return nil, err
	}
	// DBx side.
	rdb := rowdb.New()
	rt, err := rdb.CreateTable("address_table",
		rowdb.ColDef{Name: "id", Kind: rowdb.KindInt},
		rowdb.ColDef{Name: "address_string", Kind: rowdb.KindString})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if err := rt.Insert(int32(i), r); err != nil {
			return nil, err
		}
	}
	if _, err := rdb.BuildContainsIndex(rt, "address_string"); err != nil {
		return nil, err
	}

	out := &Table1Result{IndexCost: model.IndexBuild(PaperRows).Seconds()}

	// CONTAINS.
	cSel, err := mdbDB.SelectContains(mt, "address_string", workload.Table1Contains)
	if err != nil {
		return nil, err
	}
	_, cWork, err := rdb.ContainsCount(rt, "address_string", workload.Table1Contains)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, Table1Row{
		Query:        "CONTAINS('Alan & Turing & Cheshire')",
		MonetDB:      model.ContainsLookup(scaleWork(cSel.Work, cfg.SampleRows, PaperRows), true).Seconds(),
		DBx:          model.ContainsLookup(scaleWork(cWork, cfg.SampleRows, PaperRows), false).Seconds(),
		PaperMonetDB: 0.033, PaperDBx: 0.021,
	})

	// LIKE.
	lSel, err := mdbDB.SelectLike(mt, "address_string", workload.Table1Like, false)
	if err != nil {
		return nil, err
	}
	lPred, err := rowdb.Like("address_string", workload.Table1Like, false)
	if err != nil {
		return nil, err
	}
	_, lWork, err := rdb.SelectCount(rt, lPred)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, Table1Row{
		Query:        "LIKE '%Alan%Turing%Cheshire%'",
		MonetDB:      model.MonetDBScan(scaleWork(lSel.Work, cfg.SampleRows, PaperRows), true).Seconds(),
		DBx:          model.DBXScan(scaleWork(lWork, cfg.SampleRows, PaperRows)).Seconds(),
		PaperMonetDB: 0.431, PaperDBx: 0.361,
	})

	// REGEXP_LIKE (the paper leaves DBx's cell blank; we publish ours).
	rSel, err := mdbDB.SelectRegexp(mt, "address_string", workload.Table1Regex, false)
	if err != nil {
		return nil, err
	}
	rPred, err := rowdb.Regexp("address_string", workload.Table1Regex, false)
	if err != nil {
		return nil, err
	}
	_, rWork, err := rdb.SelectCount(rt, rPred)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, Table1Row{
		Query:        "REGEXP_LIKE('Alan.*Turing.*Cheshire')",
		MonetDB:      model.MonetDBScan(scaleWork(rSel.Work, cfg.SampleRows, PaperRows), true).Seconds(),
		DBx:          model.DBXScan(scaleWork(rWork, cfg.SampleRows, PaperRows)).Seconds(),
		PaperMonetDB: 8.864, PaperDBx: 0,
	})
	return out, nil
}

// Render prints the table next to the paper's values.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1: string matching operators, 2.5 Mio. records (seconds)")
	fmt.Fprintf(w, "  %-42s %10s %10s %10s %10s\n",
		"Query (WHERE clause)", "MonetDB", "paper", "DBx", "paper")
	for _, row := range r.Rows {
		paperM, paperD := "-", "-"
		if row.PaperMonetDB > 0 {
			paperM = fmt.Sprintf("%.3f", row.PaperMonetDB)
		}
		if row.PaperDBx > 0 {
			paperD = fmt.Sprintf("%.3f", row.PaperDBx)
		}
		fmt.Fprintf(w, "  %-42s %10.3f %10s %10.3f %10s\n",
			row.Query, row.MonetDB, paperM, row.DBx, paperD)
	}
	fmt.Fprintf(w, "  CONTAINS index rebuild for 2.5M tuples: %.0f s (paper: >20 min)\n",
		r.IndexCost)
}
