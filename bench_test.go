// Top-level benchmarks: one per table and figure of the paper's evaluation
// (each bench regenerates the experiment end to end), plus real-execution
// microbenchmarks of the core operators so regressions in the Go
// implementations are visible independently of the calibrated model.
package doppiodb_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"doppiodb/internal/core"
	"doppiodb/internal/experiments"
	"doppiodb/internal/mdb"
	"doppiodb/internal/pu"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

func benchCfg() experiments.Config {
	return experiments.Config{SampleRows: 10_000, Seed: 1, Selectivity: 0.2}
}

// BenchmarkTable1 regenerates Table 1 (CONTAINS vs LIKE vs REGEXP_LIKE).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (engine scaling).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (response time vs size/complexity).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (response-time breakdown).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11 (throughput vs clients).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12 (TPC-H Q13, LIKE vs ILIKE).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13 regenerates Figure 13 (hybrid execution).
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure14 regenerates Figures 14a/b/c (resource scaling).
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14a(benchCfg()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure14b(benchCfg()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure14c(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure15 regenerates Figure 15 (frequency/complexity trade-off).
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure15(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real-execution microbenchmarks -------------------------------------

// benchTable loads the address workload once per configuration.
func benchTable(b *testing.B, n int, kind workload.HitKind) (*mdb.DB, *mdb.Table) {
	b.Helper()
	db := mdb.New(nil)
	rows, _ := workload.NewGenerator(1, 64).Table(n, kind, 0.2)
	tbl, err := db.LoadAddressTable("address_table", rows)
	if err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

// BenchmarkScanLikeQ1 measures the real Go LIKE scan (Boyer-Moore) rate.
func BenchmarkScanLikeQ1(b *testing.B) {
	db, tbl := benchTable(b, 50_000, workload.HitQ1)
	b.SetBytes(int64(50_000 * 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SelectLike(tbl, "address_string", workload.Q1Like, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanRegexp measures the real backtracking regex scan for each
// evaluation query.
func BenchmarkScanRegexp(b *testing.B) {
	for _, q := range []struct {
		name, pat string
		kind      workload.HitKind
	}{
		{"Q2", workload.Q2, workload.HitQ2},
		{"Q3", workload.Q3, workload.HitQ3},
		{"Q4", workload.Q4, workload.HitQ4},
	} {
		b.Run(q.name, func(b *testing.B) {
			db, tbl := benchTable(b, 20_000, q.kind)
			b.SetBytes(int64(20_000 * 64))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.SelectRegexp(tbl, "address_string", q.pat, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHUDF measures the full hardware-UDF path (functional execution
// of the PU model plus the timing simulation).
func BenchmarkHUDF(b *testing.B) {
	sys, err := core.NewSystem(core.Options{RegionBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	rows, _ := workload.NewGenerator(1, 64).Table(50_000, workload.HitQ2, 0.2)
	tbl, err := sys.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		b.Fatal(err)
	}
	col, _ := tbl.Column("address_string")
	b.SetBytes(int64(50_000 * 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Exec(context.Background(), col.Strs, workload.Q2, token.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPUThroughput measures the PU model's byte rate at 2, 7 and 15
// states, the sweep of the ROADMAP table and of bench's pu.ns_per_byte
// probe. Like the circuit, the Shift-And kernel costs the same per byte at
// every state count; the timing model is analytic all the same, because the
// host's byte rate is not the device's.
func BenchmarkPUThroughput(b *testing.B) {
	for _, c := range []struct{ groups, states int }{{1, 2}, {3, 7}, {7, 15}} {
		pat := "token"
		if c.groups > 1 {
			alts := make([]string, c.groups)
			for i := range alts {
				alts[i] = fmt.Sprintf("(t%c|u%c)", 'a'+i, 'a'+i)
			}
			pat = strings.Join(alts, ".*")
		}
		prog, err := token.CompilePattern(pat, token.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if prog.NumStates() != c.states {
			b.Fatalf("%q has %d states, want %d", pat, prog.NumStates(), c.states)
		}
		u, err := pu.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		in := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
		b.Run(fmt.Sprintf("states=%d", c.states), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				u.Match(in)
			}
		})
	}
}

// BenchmarkAblations regenerates the design-choice ablations (gap-hold
// compiler shortcut, arbiter batch size, engine partitioning).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGapHold(benchCfg()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.AblationArbiter(benchCfg()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.AblationEngineConfig(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}
