// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment builds its workload, runs the real
// operator implementations to obtain results and work counters, converts
// software work into simulated time through the calibrated model
// (internal/perf), and obtains hardware times from the deterministic
// QPI/engine simulation (internal/memmodel via the HAL).
//
// Experiments execute the functional engines on a sample of the full row
// count (work per row is constant by construction, so counters extrapolate
// linearly) and always size the *timing* computation at the full row count.
// cmd/doppiobench prints every experiment next to the paper's published
// values.
package experiments

import (
	"fmt"

	"doppiodb/internal/bat"
	"doppiodb/internal/core"
	"doppiodb/internal/fpga"
	"doppiodb/internal/mdb"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/perf"
	"doppiodb/internal/sim"
	"doppiodb/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// SampleRows is how many rows the functional engines actually
	// process per measurement; work is extrapolated to the nominal row
	// count. 0 selects the default.
	SampleRows int
	// Seed drives the workload generator.
	Seed int64
	// Selectivity of the injected hits (paper default 0.2).
	Selectivity float64
	// MeasuredRows is the per-query row count of the measured concurrent
	// throughput runs (Figures 8 and 11). The rate is volume-normalized
	// to the paper's 2.5 M-row query, so this only has to be large
	// enough to amortize per-round overheads. 0 selects the default.
	MeasuredRows int
	// Clients is the concurrent client-goroutine count of the measured
	// throughput runs (0: the paper's 10).
	Clients int
	// Base is what every System an experiment boots starts from: the sinks
	// (and fault injector) a caller wants all of them to share — doppiobench
	// reads its -json sections back from one such set. The zero value gives
	// each System fresh private sinks. Deployment and RegionBytes are the
	// experiment's to set.
	Base core.Options
}

// Defaults mirror §7.1.1.
const (
	DefaultSampleRows   = 20_000
	DefaultSelectivity  = 0.2
	DefaultMeasuredRows = 12_000
	DefaultClients      = 10
	// PaperRows is the table size of Table 1 and the throughput
	// experiments: 2.5 million records.
	PaperRows = 2_500_000
)

func (c Config) withDefaults() Config {
	if c.SampleRows <= 0 {
		c.SampleRows = DefaultSampleRows
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Selectivity == 0 {
		c.Selectivity = DefaultSelectivity
	}
	if c.MeasuredRows <= 0 {
		c.MeasuredRows = DefaultMeasuredRows
	}
	if c.Clients <= 0 {
		c.Clients = DefaultClients
	}
	return c
}

// newSystem boots an experiment's System: c.Base on a 1 GB region with the
// given deployment (nil: the default 4×16 device).
func (c Config) newSystem(dep *fpga.Deployment) (*core.System, error) {
	o := c.Base
	o.Deployment = dep
	o.RegionBytes = 1 << 30
	return core.NewSystem(o)
}

// newSoftwareDB is the software-only column store of the CPU baselines. It
// reports into the registry the experiment's Systems share; when they share
// none its metrics are detached (nothing reads them).
func (c Config) newSoftwareDB() *mdb.DB {
	db := mdb.New(nil)
	db.Tel = c.Base.Telemetry
	return db
}

// scaleWork extrapolates sampled work to n rows.
func scaleWork(w perf.Work, sample, n int) perf.Work {
	if sample <= 0 {
		return perf.Work{}
	}
	f := float64(n) / float64(sample)
	return perf.Work{
		Rows:        n,
		Bytes:       uint64(float64(w.Bytes) * f),
		Comparisons: uint64(float64(w.Comparisons) * f),
		Steps:       uint64(float64(w.Steps) * f),
		RegexRows:   int(float64(w.RegexRows) * f),
		Postings:    uint64(float64(w.Postings) * f),
	}
}

// fpgaQueryTime returns the simulated FPGA response time for scanning n
// strings of the workload layout, partitioned over the deployment's
// engines, plus the fixed UDF-path overheads; ideal=true removes the QPI
// bottleneck (the dashed FPGA(ideal) lines of Figure 9).
func fpgaQueryTime(model perf.Model, n, strLen, engines int, ideal bool) sim.Time {
	params := memmodel.Default()
	if ideal {
		// Next-generation platform: the link feeds the engines at
		// their aggregate capacity (§7.5's dashed line).
		params.QPIBandwidth = float64(engines) * params.EngineBandwidth
		params.SwitchLatency = 0
	}
	stride := bat.EntryStride(strLen)
	per := n / engines
	queues := make([][]memmodel.Job, engines)
	for e := 0; e < engines; e++ {
		cnt := per
		if e == engines-1 {
			cnt = n - per*(engines-1)
		}
		queues[e] = []memmodel.Job{memmodel.JobForStrings(cnt, strLen, bat.OffsetWidth, stride, 2)}
	}
	res := memmodel.Simulate(params, queues)
	return res.Finish + model.DatabaseOverhead + model.UDFOverhead + model.ConfigGenTime
}

// fpgaThroughput returns queries/s for back-to-back FPGA queries over n
// strings using `engines` engines, with jobs spread one-per-engine (the
// Figure 8 setup: 10 clients keep every engine busy).
func fpgaThroughput(n, strLen, engines, queries int) float64 {
	params := memmodel.Default()
	stride := bat.EntryStride(strLen)
	queues := make([][]memmodel.Job, engines)
	for q := 0; q < queries; q++ {
		e := q % engines
		queues[e] = append(queues[e], memmodel.JobForStrings(n, strLen, bat.OffsetWidth, stride, 2))
	}
	res := memmodel.Simulate(params, queues)
	if res.Finish <= 0 {
		return 0
	}
	return float64(queries) / res.Finish.Seconds()
}

// genTable produces sample rows for a query kind.
func genTable(cfg Config, kind workload.HitKind) ([]string, int) {
	g := workload.NewGenerator(cfg.Seed, workload.DefaultStrLen)
	return g.Table(cfg.SampleRows, kind, cfg.Selectivity)
}

// fmtSeconds renders a simulated time in seconds for the reports.
func fmtSeconds(t sim.Time) string { return fmt.Sprintf("%.3f", t.Seconds()) }
