package experiments

import (
	"context"
	"fmt"
	"io"

	"doppiodb/internal/core"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// Figure10Row is one query's response-time breakdown (milliseconds).
type Figure10Row struct {
	Query     string
	Database  float64
	UDF       float64
	ConfigGen float64
	HAL       float64
	Hardware  float64
	Total     float64
}

// Figure10Result reproduces Figure 10: where the time goes for a small
// (10 k tuple) relation, so hardware execution does not dominate.
type Figure10Result struct {
	Rows []Figure10Row
}

// Figure10 runs the four queries through the full HUDF path on a 10 k-tuple
// table and reports the per-phase simulated times.
func Figure10(cfg Config) (*Figure10Result, error) {
	cfg = cfg.withDefaults()
	const tuples = 10_000
	s, err := cfg.newSystem(nil)
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(cfg.Seed, workload.DefaultStrLen)
	rows := g.MixedTable(tuples, cfg.Selectivity,
		workload.HitQ1, workload.HitQ2, workload.HitQ3, workload.HitQ4)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		return nil, err
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		return nil, err
	}

	out := &Figure10Result{}
	for _, q := range evalQueries() {
		res, err := s.Exec(context.Background(), col.Strs, q.Pattern, token.Options{})
		if err != nil {
			return nil, err
		}
		ms := func(ph string) float64 { return res.Breakdown.Get(ph).Seconds() * 1e3 }
		out.Rows = append(out.Rows, Figure10Row{
			Query:     q.Name,
			Database:  ms(core.PhaseDatabase),
			UDF:       ms(core.PhaseUDF),
			ConfigGen: ms(core.PhaseConfigGen),
			HAL:       ms(core.PhaseHAL),
			Hardware:  ms(core.PhaseHardware),
			Total:     res.Total().Seconds() * 1e3,
		})
	}
	return out, nil
}

// Render prints the breakdown.
func (r *Figure10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: response-time breakdown, 10k tuples (milliseconds)")
	fmt.Fprintf(w, "  %-4s %10s %10s %12s %10s %12s %10s\n",
		"Q", "Database", "UDF(sw)", "Config.Gen", "HAL", "HW Proc.", "Total")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-4s %10.4f %10.4f %12.6f %10.4f %12.4f %10.4f\n",
			row.Query, row.Database, row.UDF, row.ConfigGen, row.HAL,
			row.Hardware, row.Total)
	}
	fmt.Fprintln(w, "  (paper: config generation <1µs, PU parametrization ~300ns,")
	fmt.Fprintln(w, "   totals ~0.1-0.25ms dominated by hardware processing)")
}
