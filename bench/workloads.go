package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"

	"doppiodb/internal/config"
	"doppiodb/internal/experiments"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// sizes scales the workloads. The smoke test shrinks them; the driver
// always runs fullSizes.
type sizes struct {
	bigRows   int // offload_scan's table; software_scan's LIKE/ILIKE table
	smallRows int // software_scan's REGEXP_LIKE/CONTAINS table
	shortRows int // short_queries' table
	pool      int // short_queries' distinct patterns; must exceed the 128-entry caches
	figures   experiments.Config
}

var fullSizes = sizes{
	bigRows:   100_000,
	smallRows: 4_000,
	shortRows: 2_000,
	pool:      512,
	figures:   experiments.Config{SampleRows: 10_000, Selectivity: 0.2},
}

// workloadDef names a workload and says why it exists. BENCHMARK.json
// repeats name and why.
type workloadDef struct {
	name    string
	why     string
	clients int
	setup   func(seed int64, sz sizes, clients int) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:    "offload_scan",
		why:     "Large REGEXP_FPGA scans with hot plan/config caches: PU match, the per-Exec cost probe, hal and memmodel do the work.",
		clients: 1,
		setup:   setupOffloadScan,
	},
	{
		name:    "software_scan",
		why:     "CPU baseline (REGEXP_LIKE, LIKE, ILIKE, CONTAINS) with an append beside the reads: softregex dominates, no hal/pu/memmodel work.",
		clients: 1,
		setup:   setupSoftwareScan,
	},
	{
		name:    "short_queries",
		why:     "Two sessions, tiny REGEXP_FPGA jobs over 512 distinct patterns, more than the 128-entry caches hold: fixed per-query cost is the op.",
		clients: 2,
		setup:   setupShortQueries,
	},
	{
		name:    "figure_regen",
		why:     "Regenerates Table 1 and Figures 8, 11, 13 through the repo's own harness: what doppiobench and go test users wait for.",
		clients: 1,
		setup:   setupFigureRegen,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one set-up workload, ready to run ops.
type instance struct {
	// op runs client's seq-th op, checks every result against the oracle,
	// and returns an error when the op failed. With a non-nil root span it
	// also records the per-layer spans under it.
	op func(ctx context.Context, client, seq int, root *span, c *collector) error
	// bytesPerOp is the column payload an op's statements evaluate.
	bytesPerOp int64
	// stack is nil for figure_regen, which boots its own systems.
	stack *stack
	// probeStmt is the statement whose partitions the engine and memmodel
	// kernel probes run on; probeRows feed the software-matcher probes.
	probeStmt *statement
	probeRows []string
	// figures holds figure_regen's accuracy against the paper.
	figures *figureAccuracy
	// info describes the generated inputs in the run header.
	info map[string]any
	// seqs[c] is client c's next op sequence number; it runs on across
	// warm-up and phases, so short_queries keeps cycling its pool.
	seqs []int
}

func (in *instance) close() {
	if in.stack != nil {
		in.stack.close()
	}
}

var mixedKinds = []workload.HitKind{
	workload.HitQ1, workload.HitQ2, workload.HitQ3, workload.HitQ4, workload.HitQH,
}

// countMatches is the oracle: the rows that match every one of the patterns
// under Go's regexp, which shares no code with the matchers under test.
func countMatches(rows []string, patterns ...string) (int, error) {
	res := make([]*regexp.Regexp, len(patterns))
	for i, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return 0, err
		}
		res[i] = re
	}
	n := 0
rows:
	for _, r := range rows {
		for _, re := range res {
			if !re.MatchString(r) {
				continue rows
			}
		}
		n++
	}
	return n, nil
}

// probeRowsOf copies the head of the generated rows for the software-matcher
// probes, so the instance does not keep the whole generated slice alive.
func probeRowsOf(rows []string) []string {
	return append([]string(nil), rows[:min(len(rows), probeSample)]...)
}

// offloadQueries are the evaluation's queries. workload.QH itself fits the
// default 16-state/32-character device, so the hybrid statement widens QH's
// tail by one alternative: 34 character matchers, which splits at the last
// top-level `.*` into an FPGA prefix and a software tail.
var offloadQueries = []struct{ label, pattern string }{
	{"q1", workload.Q1Regex},
	{"q2", workload.Q2},
	{"q3", workload.Q3},
	{"q4", workload.Q4},
	{"qh", `(Strasse|Str\.).*(8[0-9]{4}).*(delivery|pickup)`},
}

// setupOffloadScan: one client; an op is one pass of Q1-Q4 and the hybrid QH
// as REGEXP_FPGA counts over one large table.
func setupOffloadScan(seed int64, sz sizes, clients int) (*instance, error) {
	st, err := bootStack(clients)
	if err != nil {
		return nil, err
	}
	rows := workload.NewGenerator(seed, workload.DefaultStrLen).MixedTable(sz.bigRows, 0.2, mixedKinds...)
	tbl, err := st.sys.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		return nil, err
	}
	var stmts []*statement
	for _, q := range offloadQueries {
		want, err := countMatches(rows, q.pattern)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, fpgaStatement(q.label, tbl, q.pattern, want))
	}
	return &instance{
		stack:      st,
		bytesPerOp: int64(stringColumn(tbl).PayloadBytes() * len(stmts)),
		probeStmt:  stmts[1],
		probeRows:  probeRowsOf(rows),
		info:       map[string]any{"address_table_rows": len(rows), "statements_per_op": len(stmts)},
		op: func(ctx context.Context, client, seq int, root *span, c *collector) error {
			for _, s := range stmts {
				if err := st.query(ctx, client, s, root, c); err != nil {
					return err
				}
				if root == nil {
					continue
				}
				if err := st.execDirect(ctx, s, root); err != nil {
					return err
				}
				if err := st.replay(ctx, s, root); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// setupSoftwareScan: one client, no advisor; an op is one pass of
// REGEXP_LIKE Q2-Q4 and CONTAINS over a small table, LIKE and ILIKE over the
// large one, then one non-matching one-byte append into the small table. The
// append bumps the table's version, so every pass re-plans the small table's
// four statements while the large table's two stay cached.
func setupSoftwareScan(seed int64, sz sizes, clients int) (*instance, error) {
	st, err := bootStack(clients)
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(seed, workload.DefaultStrLen)
	big := g.MixedTable(sz.bigRows, 0.2, mixedKinds...)
	small := g.MixedTable(sz.smallRows, 0.2, mixedKinds...)
	bigTbl, err := st.sys.DB.LoadAddressTable("address_table", big)
	if err != nil {
		return nil, err
	}
	smallTbl, err := st.sys.DB.LoadAddressTable("address_small", small)
	if err != nil {
		return nil, err
	}
	bigBytes := int64(stringColumn(bigTbl).PayloadBytes())
	smallBytes := int64(stringColumn(smallTbl).PayloadBytes())

	var stmts []*statement
	var opBytes int64
	add := func(s *statement, rows []string, bytes int64, oracle ...string) error {
		want, err := countMatches(rows, oracle...)
		if err != nil {
			return err
		}
		s.want = int64(want)
		stmts = append(stmts, s)
		opBytes += bytes
		return nil
	}
	for _, q := range offloadQueries[1:4] {
		s := &statement{
			label: "regexp." + q.label, kind: kindRegexp, table: smallTbl, pattern: q.pattern,
			sql: fmt.Sprintf("SELECT count(*) FROM address_small WHERE REGEXP_LIKE(%s, '%s')", stringCol, q.pattern),
		}
		if err := add(s, small, smallBytes, q.pattern); err != nil {
			return nil, err
		}
	}
	// CONTAINS matches whole words, case folded; it reads the inverted
	// index, not the column payload.
	word := func(w string) string { return `(?i)(^|[^0-9A-Za-z])` + w + `([^0-9A-Za-z]|$)` }
	err = add(&statement{
		label: "contains", kind: kindContains, table: smallTbl, pattern: "Koblenzer & Strasse",
		sql: fmt.Sprintf("SELECT count(*) FROM address_small WHERE CONTAINS(%s, 'Koblenzer & Strasse')", stringCol),
	}, small, 0, word("koblenzer"), word("strasse"))
	if err != nil {
		return nil, err
	}
	err = add(&statement{
		label: "like", kind: kindLike, table: bigTbl, pattern: workload.Q1Like,
		sql: fmt.Sprintf("SELECT count(*) FROM address_table WHERE %s LIKE '%s'", stringCol, workload.Q1Like),
	}, big, bigBytes, `Strasse`)
	if err != nil {
		return nil, err
	}
	err = add(&statement{
		label: "ilike", kind: kindLike, table: bigTbl, pattern: strings.ToLower(workload.Q1Like), fold: true,
		sql: fmt.Sprintf("SELECT count(*) FROM address_table WHERE %s ILIKE '%s'", stringCol, strings.ToLower(workload.Q1Like)),
	}, big, bigBytes, `(?i)strasse`)
	if err != nil {
		return nil, err
	}
	return &instance{
		stack:      st,
		bytesPerOp: opBytes,
		probeRows:  probeRowsOf(small),
		info: map[string]any{
			"address_table_rows": len(big), "address_small_rows": len(small), "statements_per_op": len(stmts),
		},
		op: func(ctx context.Context, client, seq int, root *span, c *collector) error {
			for _, s := range stmts {
				if err := st.query(ctx, client, s, root, c); err != nil {
					return err
				}
				if root == nil {
					continue
				}
				if err := st.replay(ctx, s, root); err != nil {
					return err
				}
			}
			sp := root.child("mdb.append")
			err := smallTbl.AppendRow(smallTbl.Rows(), "x")
			sp.end()
			return err
		},
	}, nil
}

// setupShortQueries: two clients, one sql.Engine each over one shared
// core.System; an op is one REGEXP_FPGA count over a small table, its
// pattern drawn cyclically from a pool larger than the plan and config
// caches, so both miss on every op by construction.
func setupShortQueries(seed int64, sz sizes, clients int) (*instance, error) {
	st, err := bootStack(clients)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rows := workload.NewGenerator(rng.Int63(), workload.DefaultStrLen).MixedTable(sz.shortRows, 0.2, mixedKinds...)
	tbl, err := st.sys.DB.LoadAddressTable("address_short", rows)
	if err != nil {
		return nil, err
	}
	pool, err := patternPool(rng, sz.pool, st.sys.Device.Deployment.Limits)
	if err != nil {
		return nil, err
	}
	stmts := make([]*statement, len(pool))
	for i, p := range pool {
		want, err := countMatches(rows, p.pattern)
		if err != nil {
			return nil, fmt.Errorf("pool pattern %q: %w", p.pattern, err)
		}
		stmts[i] = fpgaStatement(p.label, tbl, p.pattern, want)
	}
	return &instance{
		stack:      st,
		bytesPerOp: int64(stringColumn(tbl).PayloadBytes()),
		probeStmt:  fpgaStatement("q2", tbl, workload.Q2, 0),
		probeRows:  probeRowsOf(rows),
		info:       map[string]any{"address_short_rows": len(rows), "pattern_pool": len(pool), "statements_per_op": 1},
		op: func(ctx context.Context, client, seq int, root *span, c *collector) error {
			// The clients start half a pool apart and never share a pattern
			// within one cache's reach.
			s := stmts[(client*len(stmts)/clients+seq)%len(stmts)]
			if err := st.query(ctx, client, s, root, c); err != nil {
				return err
			}
			if root == nil {
				return nil
			}
			if err := st.execDirect(ctx, s, root); err != nil {
				return err
			}
			return st.replay(ctx, s, root)
		},
	}, nil
}

type poolPattern struct{ label, pattern string }

// patternPool derives n distinct patterns from the seed: the evaluation's
// Q1-Q4 shapes with varied literals, alternatives, digits and repeat counts.
// Every pattern fits the deployed device and stays inside the syntax the
// repo's dialect shares with Go's regexp, so the oracle can judge it.
func patternPool(rng *rand.Rand, n int, lim config.Limits) ([]poolPattern, error) {
	words := []string{"Strasse", "Koblenzer", "Frankfurt", "Muenchen", "Zuerich", "Hamburg",
		"Lindenweg", "Hauptallee", "Gartenpfad", "Ringweg", "Talgrund", "Ufersteig", "Birkenallee",
		"Hoffmann", "Fischer", "Richter", "delivery", "Dresden", "Leipzig"}
	streets := []string{"Strasse", `Str\.`, "weg", "allee", "Anger", "grund"}
	currencies := []string{"USD", "EUR", "GBP", "CHF", "JPY", "SEK", "NOK", "DKK"}
	classes := []string{"[A-Za-z]", "[A-Z]", "[a-z]"}
	seps := []string{`\:`, `\.`, `,`, `;`, `=`, `#`}

	seen := make(map[string]bool, n)
	var pool []poolPattern
	for attempts := 0; len(pool) < n; attempts++ {
		if attempts > 100*n {
			return nil, fmt.Errorf("pattern pool: only %d of %d distinct fitting patterns", len(pool), n)
		}
		// The four shapes take turns, so every seed's pool holds the same
		// share of each and seeds differ only within a shape.
		var p poolPattern
		switch len(pool) % 4 {
		case 0:
			w := words[rng.Intn(len(words))]
			from := rng.Intn(len(w) - 3)
			to := from + 4 + rng.Intn(len(w)-from-3)
			p = poolPattern{"q1", w[from:to]}
		case 1:
			a, b := rng.Intn(len(streets)), rng.Intn(len(streets)-1)
			if b >= a {
				b++
			}
			p = poolPattern{"q2", fmt.Sprintf(`(%s|%s).*(%d[0-9]{%d})`,
				streets[a], streets[b], 1+rng.Intn(9), 2+rng.Intn(3))}
		case 2:
			perm := rng.Perm(len(currencies))[:2+rng.Intn(2)]
			alts := make([]string, len(perm))
			for i, k := range perm {
				alts[i] = currencies[k]
			}
			p = poolPattern{"q3", `[0-9]+(` + strings.Join(alts, "|") + `)`}
		default:
			p = poolPattern{"q4", fmt.Sprintf(`%s{%d}%s[0-9]{%d}`,
				classes[rng.Intn(len(classes))], 1+rng.Intn(3), seps[rng.Intn(len(seps))], 1+rng.Intn(4))}
		}
		if seen[p.pattern] {
			continue
		}
		seen[p.pattern] = true
		prog, err := token.CompilePattern(p.pattern, token.Options{})
		if err != nil || config.Fits(prog, lim) != nil {
			continue
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// figureAccuracy is figure_regen's error against the paper's published
// numbers, from the first pass.
type figureAccuracy struct {
	anchorMaxRelErr    float64
	table1RegexpRelErr float64
	fig13SpeedupRelErr float64
}

func relErr(model, paper float64) float64 { return math.Abs(model-paper) / paper }

// setupFigureRegen: one client; an op is one pass of Table 1 and Figures 8,
// 11 and 13. The first pass is the oracle: every later pass must reproduce
// its deterministic modeled fields exactly.
func setupFigureRegen(seed int64, sz sizes, _ int) (*instance, error) {
	cfg := sz.figures
	cfg.Seed = seed
	in := &instance{info: map[string]any{"sample_rows": cfg.SampleRows}}
	var want []float64
	pass := func(root *span) ([]float64, *figureAccuracy, error) {
		sp := root.child("experiments.table1")
		t1, err := experiments.Table1(cfg)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = root.child("experiments.figure8")
		f8, err := experiments.Figure8(cfg)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = root.child("experiments.figure11")
		f11, err := experiments.Figure11(cfg)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = root.child("experiments.figure13")
		f13, err := experiments.Figure13(cfg)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		if len(t1.Rows) != 3 {
			return nil, nil, fmt.Errorf("table 1 has %d rows, want CONTAINS, LIKE, REGEXP_LIKE", len(t1.Rows))
		}

		// The modeled fields; the measured-concurrency fields depend on
		// goroutine interleaving and are left out.
		var got []float64
		acc := &figureAccuracy{}
		anchor := func(model, paper float64) {
			acc.anchorMaxRelErr = math.Max(acc.anchorMaxRelErr, relErr(model, paper))
		}
		for i, r := range t1.Rows {
			got = append(got, r.MonetDB, r.DBx)
			if i < 2 { // CONTAINS and LIKE; REGEXP_LIKE is a known miss
				anchor(r.MonetDB, r.PaperMonetDB)
				anchor(r.DBx, r.PaperDBx)
			}
		}
		acc.table1RegexpRelErr = relErr(t1.Rows[2].MonetDB, t1.Rows[2].PaperMonetDB)
		for _, p := range f8.Points {
			got = append(got, p.QPS, p.Capacity)
			anchor(p.QPS, p.PaperQPS)
		}
		got = append(got, f8.SingleEngineRawGBs)
		anchor(f8.SingleEngineRawGBs, 5.89) // §7.3
		for _, p := range f11.Points {
			got = append(got, p.MonetDB, p.DBx, p.FPGA)
		}
		for _, p := range f13.Points {
			got = append(got, p.HybridQPS, p.MonetDBQPS, p.Speedup)
		}
		acc.fig13SpeedupRelErr = relErr(f13.MaxSpeedup, f13.PaperMaxSpeedup)
		return got, acc, nil
	}
	var err error
	if want, in.figures, err = pass(nil); err != nil {
		return nil, err
	}
	in.op = func(ctx context.Context, client, seq int, root *span, c *collector) error {
		got, _, err := pass(root)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("pass has %d modeled fields, the first pass had %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("modeled field %d is %v, the first pass had %v", i, got[i], want[i])
			}
		}
		return nil
	}
	return in, nil
}
