// Package shmem models the pinned CPU-FPGA shared memory region of the Intel
// Xeon+FPGA prototype (§2.2, §4.2.1 of the paper).
//
// On the real platform, Intel's AAL library allocates memory in 2 MB chunks,
// pins them to contiguous physical regions (the FPGA cannot take page
// faults), and records them in a pagetable that lives in FPGA BRAM. The
// libraries cap the shareable region at 4 GB. The paper's HAL layers a slab
// allocator on top so that MonetDB can place every BAT — even tiny ones —
// inside the shared region.
//
// This package reproduces that stack in software: a Region hands out
// addresses inside a bounded virtual space, backs them with real Go memory
// (allocated lazily, chunk by chunk, so a 4 GB region costs only what is
// actually touched), counts the pinned 2 MB pages, and implements the HAL's
// slab allocator with per-size-class free lists. Page translation is not
// modelled: its cost is constant on the prototype (§2.2) and part of the
// engines' steady-state bandwidth.
package shmem

import (
	"errors"
	"fmt"
	"sync"

	"doppiodb/internal/telemetry"
)

// Platform constants from the paper.
const (
	// PageSize is the AAL pinning granularity: 2 MB.
	PageSize = 2 << 20
	// DefaultCapacity is the shared-region limit after the authors' kernel
	// module change (4 GB; the stock libraries allowed 2 GB).
	DefaultCapacity = 4 << 30
	// MinSlab is the smallest slab class. The paper routes allocations
	// under 16 KB to plain malloc because they are metadata the FPGA never
	// touches; Region mirrors that by rejecting them (callers fall back to
	// ordinary Go allocation).
	MinSlab = 16 << 10
	// MaxSlab is the largest slab class; bigger allocations get a
	// dedicated contiguous run of pages.
	MaxSlab = 32 << 20
)

// Addr is a virtual address inside the shared region. Address 0 is reserved
// as the nil address so that cleared job parameters are detectably invalid.
type Addr uint64

// ErrTooSmall is returned for allocations below MinSlab, which the paper's
// allocator deliberately leaves to malloc.
var ErrTooSmall = errors.New("shmem: allocation below 16 KB belongs to malloc, not the shared region")

// ErrOutOfMemory is returned when the region's capacity (default 4 GB) is
// exhausted, mirroring the prototype's hard pagetable limit.
var ErrOutOfMemory = errors.New("shmem: shared region capacity exhausted")

// ErrBadFree is returned when freeing an address that is not currently
// allocated.
var ErrBadFree = errors.New("shmem: free of unallocated address")

// Region is a simulated pinned shared-memory region with a slab allocator.
// It is safe for concurrent use: MonetDB worker threads and the UDF allocate
// from it concurrently in the throughput experiments.
type Region struct {
	mu       sync.Mutex
	capacity uint64
	next     uint64 // bump pointer for fresh chunks (virtual space)
	chunks   map[uint64][]byte
	free     map[uint64][]Addr // size class -> free slab addresses
	live     map[Addr]uint64   // allocated address -> size class (or raw size for huge)
	met      regionMetrics
}

// regionMetrics is the allocator state as detached telemetry instances —
// the primary store; Stats() is a view over it. AttachTelemetry publishes
// them under the shmem.* names.
type regionMetrics struct {
	reserved    *telemetry.Gauge   // virtual bytes handed to slab chunks / huge runs
	live        *telemetry.Gauge   // bytes in currently allocated slabs
	liveSlabs   *telemetry.Gauge   // number of live allocations
	pinnedPages *telemetry.Gauge   // 2 MB pages pinned (backed by real memory)
	allocs      *telemetry.Counter // successful Alloc calls
	frees       *telemetry.Counter // successful Free calls
}

// Stats reports allocator state, used by tests and the doctor-style CLI.
// It is a snapshot view over the Region's telemetry metrics.
type Stats struct {
	Capacity    uint64 // region capacity in bytes
	Reserved    uint64 // virtual bytes handed to slab chunks / huge runs
	Live        uint64 // bytes in currently allocated slabs
	LiveSlabs   int    // number of live allocations
	PinnedPages int    // 2 MB pages pinned (backed by real memory)
}

// NewRegion creates a shared region with the given capacity in bytes. A
// capacity of 0 selects DefaultCapacity (4 GB).
func NewRegion(capacity uint64) *Region {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	capacity = roundUp(capacity, PageSize)
	return &Region{
		capacity: capacity,
		next:     PageSize, // keep Addr 0 (page 0) unused: nil address
		chunks:   make(map[uint64][]byte),
		free:     make(map[uint64][]Addr),
		live:     make(map[Addr]uint64),
		met: regionMetrics{
			reserved:    telemetry.NewGauge(),
			live:        telemetry.NewGauge(),
			liveSlabs:   telemetry.NewGauge(),
			pinnedPages: telemetry.NewGauge(),
			allocs:      telemetry.NewCounter(),
			frees:       telemetry.NewCounter(),
		},
	}
}

// AttachTelemetry publishes the region's allocator metrics in reg under the
// shmem.* names (slab usage, pinned pages, allocation counts).
func (r *Region) AttachTelemetry(reg *telemetry.Registry) {
	reg.AttachGauge("shmem.reserved_bytes", r.met.reserved)
	reg.AttachGauge("shmem.live_bytes", r.met.live)
	reg.AttachGauge("shmem.live_slabs", r.met.liveSlabs)
	reg.AttachGauge("shmem.pinned_pages", r.met.pinnedPages)
	reg.AttachCounter("shmem.allocs", r.met.allocs)
	reg.AttachCounter("shmem.frees", r.met.frees)
}

// Capacity returns the region capacity in bytes.
func (r *Region) Capacity() uint64 { return r.capacity }

// sizeClass returns the slab class for n bytes: the smallest power of two
// ≥ n within [MinSlab, MaxSlab], or 0 if n needs a dedicated huge run.
func sizeClass(n uint64) uint64 {
	if n > MaxSlab {
		return 0
	}
	c := uint64(MinSlab)
	for c < n {
		c <<= 1
	}
	return c
}

func roundUp(n, to uint64) uint64 { return (n + to - 1) / to * to }

// Alloc reserves size bytes in the shared region and returns its address.
// The paper's best-fit slab policy is approximated by power-of-two classes:
// the returned slab is the smallest class that fits.
func (r *Region) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("shmem: invalid allocation size %d", size)
	}
	if size < MinSlab {
		return 0, ErrTooSmall
	}
	n := uint64(size)
	r.mu.Lock()
	defer r.mu.Unlock()

	class := sizeClass(n)
	if class != 0 {
		if fl := r.free[class]; len(fl) > 0 {
			a := fl[len(fl)-1]
			r.free[class] = fl[:len(fl)-1]
			r.live[a] = class
			r.met.live.Add(int64(class))
			r.met.liveSlabs.Add(1)
			r.met.allocs.Inc()
			return a, nil
		}
		a, err := r.reserve(class)
		if err != nil {
			return 0, err
		}
		r.live[a] = class
		r.met.live.Add(int64(class))
		r.met.liveSlabs.Add(1)
		r.met.allocs.Inc()
		return a, nil
	}
	// Huge allocation: dedicated page run, freed back as raw pages are
	// not reused (matches the prototype, where huge runs stay pinned for
	// the process lifetime).
	run := roundUp(n, PageSize)
	a, err := r.reserve(run)
	if err != nil {
		return 0, err
	}
	r.live[a] = run
	r.met.live.Add(int64(run))
	r.met.liveSlabs.Add(1)
	r.met.allocs.Inc()
	return a, nil
}

// reserve carves a fresh aligned run out of the virtual space and backs it
// with real memory. Caller holds r.mu.
func (r *Region) reserve(n uint64) (Addr, error) {
	run := roundUp(n, PageSize)
	if r.next+run > r.capacity {
		return 0, ErrOutOfMemory
	}
	base := r.next
	r.next += run
	r.chunks[base] = make([]byte, run)
	r.met.reserved.Add(int64(run))
	pages := int(run / PageSize)
	r.met.pinnedPages.Add(int64(pages))
	// reserve never splits a run across chunks, so slabs smaller than the
	// run would leave a tail; return tail slabs of the same class to the
	// free list so power-of-two classes below PageSize pack densely.
	if n < run {
		for off := n; off+n <= run; off += n {
			r.free[n] = append(r.free[n], Addr(base+off))
		}
	}
	return Addr(base), nil
}

// Free returns an allocation to its slab free list.
func (r *Region) Free(a Addr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	size, ok := r.live[a]
	if !ok {
		return ErrBadFree
	}
	delete(r.live, a)
	r.met.live.Add(-int64(size))
	r.met.liveSlabs.Add(-1)
	r.met.frees.Inc()
	if size <= MaxSlab && sizeClass(size) == size {
		r.free[size] = append(r.free[size], a)
	}
	return nil
}

// Bytes returns the backing slice for an allocation made at a. The slice is
// the full slab, which is at least as large as the requested size; callers
// track their own logical lengths (as MonetDB's BATs do).
func (r *Region) Bytes(a Addr) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size, ok := r.live[a]
	if !ok {
		return nil, fmt.Errorf("shmem: Bytes of unallocated address %#x", uint64(a))
	}
	base, buf, ok := r.chunkFor(uint64(a))
	if !ok {
		return nil, fmt.Errorf("shmem: no backing chunk for %#x", uint64(a))
	}
	off := uint64(a) - base
	return buf[off : off+size : off+size], nil
}

// chunkFor finds the backing chunk containing virtual address v. Caller
// holds r.mu.
func (r *Region) chunkFor(v uint64) (base uint64, buf []byte, ok bool) {
	// Chunks are aligned to PageSize and contiguous runs, so walk down
	// page by page until a chunk base matches. Runs are at most
	// MaxSlab-rounded, bounding the walk.
	for p := v / PageSize * PageSize; ; p -= PageSize {
		if b, found := r.chunks[p]; found {
			if v < p+uint64(len(b)) {
				return p, b, true
			}
			return 0, nil, false
		}
		if p == 0 {
			return 0, nil, false
		}
	}
}

// Stats returns a snapshot of allocator statistics (a view over the
// region's telemetry metrics).
func (r *Region) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Capacity:    r.capacity,
		Reserved:    uint64(r.met.reserved.Value()),
		Live:        uint64(r.met.live.Value()),
		LiveSlabs:   int(r.met.liveSlabs.Value()),
		PinnedPages: int(r.met.pinnedPages.Value()),
	}
}
