// Command regexfpga runs one pattern over strings on the simulated FPGA's
// regex engines and reports matches, the configuration-vector footprint,
// and the simulated hardware time — a direct line to the paper's HUDF
// without a database around it.
//
// Usage:
//
//	regexfpga -pattern '(Strasse|Str\.).*(8[0-9]{4})' [-i] [-file data.txt]
//	regexfpga -pattern 'error.*timeout' < app.log
//	regexfpga -pattern 'Strasse' -gen 100000 -selectivity 0.2
//
// Input is one string per line (stdin or -file), or -gen N synthesizes the
// paper's address workload.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"doppiodb/cmd/internal/boot"
	"doppiodb/internal/config"
	"doppiodb/internal/core"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/token"
	"doppiodb/internal/topdown"
	"doppiodb/internal/workload"
)

func main() {
	var (
		pattern  = flag.String("pattern", "", "regular expression (required)")
		fold     = flag.Bool("i", false, "case-insensitive (collation registers)")
		file     = flag.String("file", "", "input file (default stdin)")
		gen      = flag.Int("gen", 0, "generate N address rows instead of reading input")
		sel      = flag.Float64("selectivity", 0.2, "hit selectivity with -gen")
		quiet    = flag.Bool("quiet", false, "suppress per-line output")
		trace    = flag.Bool("trace", false, "print the query-lifecycle span tree")
		traceOut = flag.String("trace-out", "", "write the flight-recorder timeline (plus the query span tree) as Chrome-trace JSON to this file")
		explainF = flag.Bool("explain", false, "print the placement decision record with predicted-vs-actual cost per term")
		explOut  = flag.String("explain-out", "", "write the decision record as JSON to this file")
		tdF      = flag.Bool("topdown", false, "print the query's bottleneck verdict and the fabric utilization table")
		tdOut    = flag.String("topdown-out", "", "write the attribution and fabric report as JSON to this file")
	)
	flag.Parse()
	if *pattern == "" {
		fmt.Fprintln(os.Stderr, "regexfpga: -pattern is required")
		flag.Usage()
		os.Exit(2)
	}

	// Compile first so capacity problems are reported before any I/O.
	prog, err := token.CompilePattern(*pattern, token.Options{FoldCase: *fold})
	fatal(err)
	vec, encErr := config.Encode(prog, config.DefaultLimits)

	s, err := core.NewSystem(core.Options{RegionBytes: 2 << 30})
	fatal(err)

	var rows []string
	switch {
	case *gen > 0:
		g := workload.NewGenerator(1, workload.DefaultStrLen)
		rows, _ = g.Table(*gen, workload.HitQ2, *sel)
	default:
		in := os.Stdin
		if *file != "" {
			f, err := os.Open(*file)
			fatal(err)
			defer f.Close()
			in = f
		}
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			rows = append(rows, sc.Text())
		}
		fatal(sc.Err())
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "regexfpga: no input")
		os.Exit(1)
	}

	tbl, err := s.DB.LoadAddressTable("input", rows)
	fatal(err)
	col, err := tbl.Column("address_string")
	fatal(err)

	res, err := s.Exec(context.Background(), col.Strs, *pattern, token.Options{FoldCase: *fold})
	fatal(err)

	if !*quiet {
		for i := 0; i < res.Matches.Count(); i++ {
			if pos := res.Matches.Get(i); pos != 0 {
				fmt.Printf("%d:%d:%s\n", i, pos, rows[i])
			}
		}
	}
	fmt.Fprintf(os.Stderr, "pattern: %q (%d states, %d character matchers)\n",
		*pattern, prog.NumStates(), prog.NumChars())
	if encErr == nil {
		fmt.Fprintf(os.Stderr, "config vector: %d x 512-bit words\n", config.Words(vec))
	} else {
		fmt.Fprintf(os.Stderr, "direct offload not possible (%v)\n", encErr)
	}
	if res.Hybrid {
		fmt.Fprintf(os.Stderr, "hybrid execution: FPGA %q + CPU %q\n", res.HWPart, res.SWPart)
	}
	fmt.Fprintf(os.Stderr, "%d/%d rows matched; simulated response %v (hardware %v)\n",
		res.MatchCount, len(rows), res.Total(),
		res.Breakdown.Get(core.PhaseHardware))
	fmt.Fprintf(os.Stderr, "device: %s\n", s.Device)
	if *trace && res.Trace != nil {
		fmt.Fprintln(os.Stderr, "trace:")
		res.Trace.WriteTree(os.Stderr)
	}
	if *explainF {
		if res.Decision == nil {
			fmt.Fprintln(os.Stderr, "explain: no decision record (cost estimation failed)")
		} else {
			fmt.Fprintln(os.Stderr, "explain:")
			res.Decision.WriteText(os.Stderr)
		}
	}
	if *tdF {
		if res.Topdown != nil {
			fmt.Fprintln(os.Stderr, res.Topdown.Line())
		}
		s.HAL.Topdown().WriteText(os.Stderr)
	}
	if *tdOut != "" {
		doc := struct {
			Attribution *topdown.Attribution `json:"attribution,omitempty"`
			Fabric      topdown.FabricReport `json:"fabric"`
			Conserved   bool                 `json:"conserved"`
		}{Attribution: res.Topdown, Fabric: s.HAL.Topdown()}
		doc.Conserved = doc.Fabric.Conserved()
		fatal(boot.WriteJSON(*tdOut, doc))
		fmt.Fprintf(os.Stderr, "topdown report written to %s\n", *tdOut)
	}
	if *explOut != "" && res.Decision != nil {
		fatal(boot.WriteFile(*explOut, res.Decision.WriteJSON))
		fmt.Fprintf(os.Stderr, "decision record written to %s\n", *explOut)
	}
	if *traceOut != "" {
		fatal(boot.WriteFile(*traceOut, func(w io.Writer) error {
			return flightrec.WriteChromeTrace(w, s.Rec.Window(), res.Trace)
		}))
		fmt.Fprintf(os.Stderr, "timeline written to %s (%d events; open in ui.perfetto.dev)\n",
			*traceOut, s.Rec.Len())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "regexfpga: %v\n", err)
		os.Exit(1)
	}
}
