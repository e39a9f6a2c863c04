// Command doppiosh is an interactive SQL shell over the simulated doppioDB
// system: it boots the platform, optionally loads a dataset, and executes
// SELECT statements — including the hardware operator REGEXP_FPGA — printing
// result tables and per-query accounting.
//
// Usage:
//
//	doppiosh [-rows N] [-selectivity F] [-tpch SF] [-auto] [-shared-scans]
//	         [-e 'stmt;...'] [-mon ADDR] [-faults SPEC]
//
// Without -e it reads statements (terminated by `;`) from stdin. -rows
// preloads `address_table` with the paper's workload; -tpch additionally
// loads `customer` and `orders`. -auto enables the §9 cost-based optimizer
// that transparently offloads REGEXP_LIKE to the FPGA when predicted faster.
//
// Meta-commands: `\metrics` dumps every telemetry counter and gauge of the
// running system (PU utilization, QPI bytes, DSM status counters, allocator
// gauges, operator counts), `\trace` prints the last query's lifecycle span
// tree with simulated and wall-clock durations, `\plan` prints the last
// query's executed physical-operator tree — per-operator placement
// (software/fpga/hybrid), plan-cache status, and observed row counts,
// `\explain` prints the last
// query's placement decision record — candidate plans with predicted cost
// terms, the chosen plan's reason, and predicted-vs-actual error per term
// (`EXPLAIN [ANALYZE] SELECT ...` works as a statement, too), `\health`
// shows the AFU handshake state, the per-engine circuit breaker, every
// fault/recovery counter, and the cost-model calibration report with drift
// alarms, `\slo` prints the windowed SLO report (per-class latency
// quantiles, availability SLIs, burn rates and the alert state),
// `\querylog [N]` prints the N most recent wide query events from the
// tail-biased log, `\topdown` prints the fabric's cumulative topdown
// utilization table (per-engine cycle buckets, the QPI link ledger, the
// conservation check) plus the last query's bottleneck verdict,
// `\dump [FILE]` writes the flight-recorder window (to stdout, or
// to FILE — a .json suffix selects the Chrome-trace format for
// ui.perfetto.dev), `\q` quits. -faults injects hardware faults (same spec
// grammar as doppiobench); degraded queries are marked on their status line
// and trigger an automatic flight-recorder dump to stderr. -mon ADDR serves
// the live monitoring endpoint (/metrics, /health, /trace, /calibration,
// /utilization, /debug/pprof); SIGQUIT dumps the flight-recorder window to stderr at any
// time.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"doppiodb/cmd/internal/boot"
	"doppiodb/internal/core"
	"doppiodb/internal/doppiomon"
	"doppiodb/internal/explain"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/mdb"
	"doppiodb/internal/plan"
	"doppiodb/internal/sim"
	"doppiodb/internal/sql"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/workload"
)

// lastTrace is the span tree of the most recent query, for \trace.
var lastTrace *telemetry.Span

// lastDecision is the placement decision record of the most recent query
// that carried one, for \explain.
var lastDecision *explain.Record

// lastPlan is the executed physical-operator tree of the most recent
// query, for \plan.
var lastPlan *plan.Node

func main() {
	var (
		rows        = flag.Int("rows", 100_000, "preloaded address_table rows (0: none)")
		sel         = flag.Float64("selectivity", 0.2, "hit selectivity of the preload")
		tpch        = flag.Float64("tpch", 0, "also load TPC-H customer/orders at this scale factor")
		auto        = flag.Bool("auto", false, "enable cost-based REGEXP_LIKE offload (§9)")
		eval        = flag.String("e", "", "execute these statements and exit")
		monAddr     = flag.String("mon", "", "serve the live monitoring endpoint on this address (e.g. 127.0.0.1:9137)")
		fspec       = flag.String("faults", "", "hardware fault injection spec, e.g. 'stuck-done=0.2,engine-drop=1@8+3,qpi=0.5,seed=42'")
		budget      = flag.Duration("query-budget", 0, "per-query simulated deadline (0: none); over-budget queries fail with a deadline error instead of queueing")
		sharedScans = flag.Bool("shared-scans", false, "coalesce concurrent identical FPGA scans into one HAL job group")
	)
	flag.Parse()

	inj, err := boot.Faults(*fspec, "")
	fatal(err)
	sys, err := core.NewSystem(core.Options{RegionBytes: 2 << 30, SharedScans: *sharedScans, Faults: inj})
	fatal(err)
	if *sharedScans {
		fmt.Fprintln(os.Stderr, "shared-scan coalescing enabled")
	}
	mon, err := boot.Observe("doppiosh", "", *monAddr, doppiomon.Config{
		Registry:    sys.Tel,
		Recorder:    sys.Rec,
		Health:      sys.HAL,
		Calibration: sys.Audit,
		Obs:         sys.Obs,
	})
	fatal(err)
	defer mon.Close()
	if *rows > 0 {
		data, hits := workload.NewGenerator(1, workload.DefaultStrLen).
			Table(*rows, workload.HitQ2, *sel)
		_, err := sys.DB.LoadAddressTable("address_table", data)
		fatal(err)
		fmt.Fprintf(os.Stderr, "loaded address_table: %d rows (%d Q2 hits)\n", len(data), hits)
	}
	if *tpch > 0 {
		loadTPCH(sys.DB, *tpch)
	}
	engine := sql.NewEngine(sys.DB)
	if *budget > 0 {
		engine.QueryBudget = sim.FromDuration(*budget)
		fmt.Fprintf(os.Stderr, "per-query budget: %v (simulated)\n", *budget)
	}
	if *auto {
		engine.Advisor = sys
		fmt.Fprintln(os.Stderr, "cost-based hardware offload enabled")
	}
	fmt.Fprintf(os.Stderr, "%s\n", sys.Device)

	if *eval != "" {
		for _, stmt := range splitStatements(*eval) {
			if meta(sys, stmt) {
				continue
			}
			run(engine, stmt)
		}
		return
	}
	fmt.Fprintln(os.Stderr, `doppiosh — end statements with ';', \metrics for telemetry, exit with \q`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Fprint(os.Stderr, "doppiodb> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == `\q` {
			return
		}
		if meta(sys, line) {
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			for _, stmt := range splitStatements(buf.String()) {
				if meta(sys, stmt) {
					continue
				}
				run(engine, stmt)
			}
			buf.Reset()
		}
		prompt()
	}
}

// meta executes a backslash meta-command, reporting whether cmd was one.
func meta(sys *core.System, cmd string) bool {
	trimmed := strings.TrimSpace(cmd)
	if rest, ok := strings.CutPrefix(trimmed, `\dump`); ok && (rest == "" || rest[0] == ' ') {
		dumpRecorder(sys.Rec, strings.TrimSpace(rest))
		return true
	}
	if rest, ok := strings.CutPrefix(trimmed, `\querylog`); ok && (rest == "" || rest[0] == ' ') {
		n := 20
		if v, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil && v >= 0 {
			n = v
		}
		sys.Obs.Log.WriteText(os.Stdout, n)
		return true
	}
	switch trimmed {
	case `\metrics`:
		sys.Tel.WriteText(os.Stdout)
		if lastTrace != nil {
			fmt.Println("\nlast query trace:")
			lastTrace.WriteTree(os.Stdout)
		}
		return true
	case `\trace`:
		if lastTrace == nil {
			fmt.Fprintln(os.Stderr, "no query traced yet")
			return true
		}
		lastTrace.WriteTree(os.Stdout)
		return true
	case `\plan`:
		if lastPlan == nil {
			fmt.Fprintln(os.Stderr, "no plan captured yet (run a query first)")
			return true
		}
		for _, l := range lastPlan.Lines(true) {
			fmt.Println(l)
		}
		return true
	case `\explain`:
		if lastDecision == nil {
			fmt.Fprintln(os.Stderr, "no placement decision recorded yet (run a REGEXP_LIKE/REGEXP_FPGA query first)")
			return true
		}
		lastDecision.WriteText(os.Stdout)
		return true
	case `\health`:
		printHealth(sys)
		return true
	case `\slo`:
		sys.Obs.SLO.Report().WriteText(os.Stdout)
		return true
	case `\topdown`:
		sys.HAL.Topdown().WriteText(os.Stdout)
		if lastDecision != nil && lastDecision.Topdown != nil {
			fmt.Println("last query " + lastDecision.Topdown.Line())
		}
		return true
	}
	return false
}

// dumpRecorder writes the flight-recorder window: to stdout without an
// argument, otherwise to the named file (a .json suffix selects the
// Chrome-trace format; anything else the text dump).
func dumpRecorder(rec *flightrec.Recorder, file string) {
	if file == "" {
		rec.WriteText(os.Stdout)
		return
	}
	kind, write := "text dump", func(w io.Writer) error { rec.WriteText(w); return nil }
	if strings.HasSuffix(file, ".json") {
		kind = "Chrome-trace timeline (open in ui.perfetto.dev)"
		write = func(w io.Writer) error { return flightrec.WriteChromeTrace(w, rec.Window()) }
	}
	if err := boot.WriteFile(file, write); err != nil {
		fmt.Fprintf(os.Stderr, "dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight recorder: %d event(s) written to %s as %s\n", rec.Len(), file, kind)
}

// printHealth renders the robustness layer's view of the hardware: the AAL
// handshake, the per-engine circuit breaker, and the fault/recovery counters.
func printHealth(sys *core.System) {
	fmt.Printf("AFU present: %v\n", sys.HAL.AFUPresent())
	fmt.Printf("runtime state: %s   fabric resets: %d\n\n", sys.HAL.State(), sys.HAL.FabricResets())
	fmt.Println("engine  state        consec-fails  jobs      fails  readmissions")
	for _, h := range sys.HAL.Health() {
		state := "healthy"
		if h.Quarantined {
			state = "QUARANTINED"
		}
		fmt.Printf("%6d  %-11s  %12d  %8d  %5d  %12d\n",
			h.Engine, state, h.ConsecFails, h.Jobs, h.Fails, h.Readmissions)
	}
	fmt.Println()
	for _, name := range []string{
		"hal.faults.stuck_done", "hal.faults.config_corrupt",
		"hal.faults.status_corrupt", "hal.faults.handshake_loss",
		"hal.faults.engine_drop", "hal.faults.qpi_degraded",
		"hal.retries", "hal.rehandshakes", "hal.status_scrubbed",
		"hal.engine.quarantined", "hal.engine.readmitted",
		"core.fallback.software",
	} {
		fmt.Printf("%-28s %d\n", name, sys.Tel.Counter(name).Value())
	}
	fmt.Println()
	rep := sys.Obs.SLO.Report()
	alert := "quiet"
	if rep.AlertActive {
		alert = "FIRING"
	}
	fmt.Printf("SLO: %d submitted, %d errors, burn fast %.2fx / slow %.2fx, alert %s (%d fired)\n\n",
		rep.Submitted, rep.Errors, rep.FastBurn, rep.SlowBurn, alert, rep.AlertsFired)
	sys.Audit.Stats().WriteText(os.Stdout)
}

// splitStatements splits on `;` outside string literals.
func splitStatements(src string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\'':
			inStr = !inStr
			cur.WriteByte(c)
		case c == ';' && !inStr:
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

func run(engine *sql.Engine, stmt string) {
	start := time.Now()
	res, err := engine.Query(stmt)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if res.Trace != nil {
		lastTrace = res.Trace
	}
	if res.Decision != nil {
		lastDecision = res.Decision
	}
	if res.Plan != nil {
		lastPlan = res.Plan
	}
	printTable(res)
	note := ""
	if res.FastPath != "" {
		note = " via " + res.FastPath
	}
	if res.UDF != nil {
		note += fmt.Sprintf(", FPGA %.3f ms simulated", res.UDF.HWSeconds*1e3)
		if res.UDF.Degraded {
			note += " [DEGRADED: software fallback]"
		}
	}
	fmt.Fprintf(os.Stderr, "%d row(s) in %v%s\n\n", len(res.Rows), elapsed.Round(time.Microsecond), note)
}

// printTable renders a result set with column-width alignment, capping very
// long outputs.
func printTable(res *sql.Result) {
	const maxRows = 50
	widths := make([]int, len(res.Cols))
	for i, c := range res.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, 0, len(res.Rows))
	for r, row := range res.Rows {
		if r >= maxRows {
			break
		}
		line := make([]string, len(row))
		for i, v := range row {
			s := "NULL"
			if v != nil {
				s = fmt.Sprint(v)
			}
			line[i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		cells = append(cells, line)
	}
	for i, c := range res.Cols {
		fmt.Printf("%-*s  ", widths[i], c)
		_ = i
	}
	fmt.Println()
	for i := range res.Cols {
		fmt.Printf("%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Println()
	for _, line := range cells {
		for i, s := range line {
			fmt.Printf("%-*s  ", widths[i], s)
		}
		fmt.Println()
	}
	if len(res.Rows) > maxRows {
		fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxRows)
	}
}

func loadTPCH(db *mdb.DB, sf float64) {
	tp := workload.GenerateTPCH(7, sf, 0.01)
	cust, err := db.CreateTable("customer", mdb.ColSpec{Name: "c_custkey", Kind: mdb.KindInt})
	fatal(err)
	for _, c := range tp.Customers {
		fatal(cust.AppendRow(c.CustKey))
	}
	ord, err := db.CreateTable("orders",
		mdb.ColSpec{Name: "o_orderkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_custkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_comment", Kind: mdb.KindString})
	fatal(err)
	for _, o := range tp.Orders {
		fatal(ord.AppendRow(o.OrderKey, o.CustKey, o.Comment))
	}
	fmt.Fprintf(os.Stderr, "loaded TPC-H SF %.2f: %d customers, %d orders\n",
		sf, len(tp.Customers), len(tp.Orders))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "doppiosh: %v\n", err)
		os.Exit(1)
	}
}
