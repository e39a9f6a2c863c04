// Package engine implements the Regex Engine of §5: a String Reader that
// scatter-gathers strings through the offset column and string heap, a bank
// of Processing Units fed round-robin through input FIFOs, and an Output
// Collector that writes 16-bit match indexes back in input order, packed 32
// to a cache line.
//
// Execution here is *functional*: the engine computes the exact result BAT
// the hardware would produce (all PUs carry the same configuration, so
// round-robin dispatch only affects timing, which internal/memmodel
// simulates from the job's data volume). To exploit the host's cores the
// way the hardware exploits its 16 PUs, large jobs are striped across one
// goroutine per PU.
package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"doppiodb/internal/config"
	"doppiodb/internal/fpga"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/pu"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
)

// JobParams is the parameter structure the UDF writes to shared memory
// (§4.2.2): the configuration vector, a pointer to the offset BAT, a
// pointer to the string heap, a pointer to the result BAT, the offset width
// and the string count. In the simulator, resolved shared-memory pointers
// are byte slices.
type JobParams struct {
	Config      []byte // encoded configuration vector
	Offsets     []byte // offset column (little-endian, OffsetWidth each)
	OffsetWidth int    // bytes per offset (4 in this deployment)
	Heap        []byte // string heap (strings are null-terminated)
	Count       int    // number of input strings
	Result      []byte // result column, 2 bytes per string, len >= 2*Count
}

// Validate checks structural consistency of the parameters.
func (p *JobParams) Validate() error {
	switch {
	case len(p.Config) == 0:
		return errors.New("engine: missing configuration vector")
	case p.OffsetWidth != 4:
		return fmt.Errorf("engine: unsupported offset width %d", p.OffsetWidth)
	case p.Count < 0 || len(p.Offsets) < p.Count*p.OffsetWidth:
		return fmt.Errorf("engine: offset column too short: %d for %d strings",
			len(p.Offsets), p.Count)
	case len(p.Result) < p.Count*2:
		return fmt.Errorf("engine: result column too short: %d for %d strings",
			len(p.Result), p.Count)
	}
	return nil
}

// Stats summarizes one executed job, mirroring the statistics the hardware
// writes to the status structure (§3 step 8). It is the per-job view; the
// same numbers accumulate in the engine's telemetry counters
// (engine.jobs/strings/matches/heap_bytes, pu.cycles).
type Stats struct {
	Strings   int
	Matches   int
	HeapBytes int    // heap volume the String Reader covered
	PUCycles  uint64 // PU cycles consumed (one input byte per 400 MHz cycle)
}

// Engine is one Regex Engine instance of a programmed device.
type Engine struct {
	ID  int
	dev *fpga.Device
	tel *telemetry.Registry
}

// New creates engine id of the device. Its work counters are detached (they
// count into the void) until SetTelemetry binds a registry.
func New(dev *fpga.Device, id int) *Engine {
	return &Engine{ID: id, dev: dev}
}

// SetTelemetry binds the engine's work counters to reg.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) { e.tel = reg }

// Execute runs one job functionally and returns its stats. The error paths
// mirror the hardware's: an invalid configuration vector or an expression
// over the deployed capacity cannot be loaded into the PUs.
func (e *Engine) Execute(p JobParams) (Stats, error) {
	if err := p.Validate(); err != nil {
		return Stats{}, err
	}
	prog, err := config.Decode(p.Config)
	if err != nil {
		return Stats{}, err
	}
	if err := config.Fits(prog, e.dev.Deployment.Limits); err != nil {
		return Stats{}, err
	}
	st, err := e.run(prog, p)
	if err == nil {
		e.tel.Counter("engine.jobs").Inc()
		e.tel.Counter("engine.strings").Add(int64(st.Strings))
		e.tel.Counter("engine.matches").Add(int64(st.Matches))
		e.tel.Counter("engine.heap_bytes").Add(int64(st.HeapBytes))
		e.tel.Counter("pu.cycles").Add(int64(st.PUCycles))
	}
	return st, err
}

// run loads the configuration into one PU, then dispatches the strings over
// per-worker clones of it and collects results in input order.
func (e *Engine) run(prog *token.Program, p JobParams) (Stats, error) {
	unit, err := pu.New(prog)
	if err != nil {
		return Stats{}, err
	}
	workers := e.dev.Deployment.PUsPerEngine
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if p.Count < 4096 || workers < 2 {
		workers = 1
	}
	stats := make([]Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (p.Count + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > p.Count {
			hi = p.Count
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			stats[w], errs[w] = runRange(unit.Clone(), p, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total Stats
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return total, errs[w]
		}
		total.Strings += stats[w].Strings
		total.Matches += stats[w].Matches
		total.HeapBytes += stats[w].HeapBytes
		total.PUCycles += stats[w].PUCycles
	}
	return total, nil
}

// runRange processes strings [lo, hi) with one PU.
func runRange(unit *pu.Unit, p JobParams, lo, hi int) (Stats, error) {
	var st Stats
	for i := lo; i < hi; i++ {
		off := binary.LittleEndian.Uint32(p.Offsets[i*p.OffsetWidth:])
		if off >= uint32(len(p.Heap)) {
			return st, fmt.Errorf("engine: offset %d of string %d outside heap (%d)",
				off, i, len(p.Heap))
		}
		s := p.Heap[off:]
		// Strings are null-terminated (§2.3.1); the String Reader
		// parses up to the terminator.
		end := bytes.IndexByte(s, 0)
		if end < 0 {
			end = len(s)
		}
		s = s[:end]
		res := unit.Match(s)
		binary.LittleEndian.PutUint16(p.Result[i*2:], res)
		st.Strings++
		if res != 0 {
			st.Matches++
		}
		st.HeapBytes += heapSpan(end)
	}
	st.PUCycles = unit.Stats().Bytes
	return st, nil
}

// heapSpan is the heap footprint of one string: metadata, bytes, NUL, and
// alignment padding — what the String Reader actually transfers.
func heapSpan(strLen int) int {
	const meta, align = 4, 8
	return (meta + strLen + 1 + align - 1) / align * align
}

// TimingJob converts executed job parameters into the memory-model job that
// drives the cycle simulation.
func TimingJob(p JobParams, st Stats) memmodel.Job {
	return memmodel.Job{
		Strings:     st.Strings,
		OffsetBytes: st.Strings * p.OffsetWidth,
		HeapBytes:   st.HeapBytes,
		ResultBytes: st.Strings * 2,
	}
}
