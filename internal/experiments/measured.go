package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"doppiodb/internal/bat"
	"doppiodb/internal/fpga"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// This file drives the throughput experiments the way the paper ran them:
// N concurrent database clients hammering the shared FPGA, rather than a
// closed-form batch simulation. Each client goroutine issues back-to-back
// REGEXP_FPGA queries through the full stack (operator, HAL, device
// runtime); the device runtime's admission layer merges their jobs into
// shared arbitration rounds, and throughput is read off the simulated
// device timeline. The functional engines scan MeasuredRows per query and
// the rate is volume-normalized to the paper's 2.5 M-row query, which is
// sound because the device consumes input at a constant per-byte rate
// (property II of the PU design, §5).

// MeasuredRate is one concurrent throughput measurement.
type MeasuredRate struct {
	Engines int
	Clients int
	Queries int
	Rows    int
	// RawGBs is the QPI traffic the device runtime moved divided by the
	// simulated span of the run — the achieved link rate.
	RawGBs float64
	// PaperQPS is the rate expressed in paper-sized queries per second
	// (2.5 M tuples each), directly comparable to Figures 8 and 11.
	PaperQPS float64
	// MaxQueueWait is the longest admission-queue delay any query saw.
	MaxQueueWaitSeconds float64
}

// paperQueryVolume is the QPI data volume of one paper-sized query:
// 2.5 M strings in the BAT wire layout.
func paperQueryVolume() float64 {
	return float64(PaperRows) * float64(bat.EntryStride(workload.DefaultStrLen)+bat.OffsetWidth+2)
}

// measureThroughput runs clients concurrent goroutines, each issuing
// perClient hardware queries over a MeasuredRows-row table on a fresh
// system with the given engine count, and reports the achieved rate on
// the simulated device timeline.
func measureThroughput(cfg Config, engines, clients, perClient int) (*MeasuredRate, error) {
	dep := fpga.DefaultDeployment()
	dep.Engines = engines
	s, err := cfg.newSystem(&dep)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	g := workload.NewGenerator(cfg.Seed, workload.DefaultStrLen)
	rows, _ := g.Table(cfg.MeasuredRows, workload.HitQ1, cfg.Selectivity)
	tbl, err := s.DB.LoadAddressTable("address_table", rows)
	if err != nil {
		return nil, err
	}
	col, err := tbl.Column("address_string")
	if err != nil {
		return nil, err
	}

	start := s.HAL.SimEpoch()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		bytes    int64
		maxWait  float64
		firstErr error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				res, err := s.Exec(context.Background(), col.Strs, workload.Q1Regex, token.Options{})
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				bytes += res.HW.Bytes
				if w := res.HW.QueueWait.Seconds(); w > maxWait {
					maxWait = w
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	span := s.HAL.SimEpoch() - start
	if span <= 0 {
		return nil, fmt.Errorf("experiments: measured run advanced no simulated time")
	}
	rate := float64(bytes) / span.Seconds()
	return &MeasuredRate{
		Engines:             engines,
		Clients:             clients,
		Queries:             clients * perClient,
		Rows:                cfg.MeasuredRows,
		RawGBs:              rate / 1e9,
		PaperQPS:            rate / paperQueryVolume(),
		MaxQueueWaitSeconds: maxWait,
	}, nil
}

// ThroughputResult is the measured concurrent-throughput sweep
// (doppiobench -experiment throughput -clients N): achieved device rates
// for 1..Clients concurrent client goroutines on the default deployment.
type ThroughputResult struct {
	Rates []MeasuredRate
}

// Throughput sweeps the client count from 1 to cfg.Clients, measuring each
// point with live concurrent sessions through the device runtime.
func Throughput(cfg Config) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	out := &ThroughputResult{}
	for clients := 1; clients <= cfg.Clients; clients++ {
		m, err := measureThroughput(cfg, 4, clients, 3)
		if err != nil {
			return nil, err
		}
		out.Rates = append(out.Rates, *m)
	}
	return out, nil
}

// Render prints the sweep.
func (r *ThroughputResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Measured concurrent throughput (paper-sized queries/s, live sessions)")
	fmt.Fprintf(w, "  %-8s %10s %12s %12s %16s\n", "clients", "queries", "q/s", "raw GB/s", "max queue wait")
	for _, m := range r.Rates {
		fmt.Fprintf(w, "  %-8d %10d %12.1f %12.2f %15.6fs\n",
			m.Clients, m.Queries, m.PaperQPS, m.RawGBs, m.MaxQueueWaitSeconds)
	}
}
