// Package bat implements MonetDB's storage layout (§2.3.1): Binary
// Association Tables with a void (implicit, dense) OID head, fixed-width
// value tails for integers and shorts, and — for variable-length strings —
// an offset tail pointing into a string heap. The heap stores each string
// null-terminated with per-entry metadata and alignment padding, exactly
// the layout the FPGA's String Reader walks (Figure 2).
//
// Columns are optionally backed by the CPU-FPGA shared-memory region
// (internal/shmem): the paper modifies MonetDB so that every BAT — however
// small — lives in that region (§4.2.1), which is what makes zero-copy
// offload possible. Without a region, columns fall back to ordinary Go
// memory and remain usable for pure-software engines.
package bat

import (
	"encoding/binary"
	"fmt"

	"doppiodb/internal/shmem"
)

// Heap layout constants (Figure 2's meta and padding).
const (
	// HeapHeader is the heap's leading metadata block.
	HeapHeader = 16
	// EntryMeta is the per-string metadata preceding the bytes (the
	// string length). Together with the NUL terminator and 8-byte
	// alignment this gives a 64 B string a 72 B heap entry; adding the
	// 4 B offset reproduces the paper's §7.3 accounting (4.7 GB/s useful
	// vs 5.89 GB/s raw is a factor of ~1.25 = 80 B / 64 B).
	EntryMeta = 4
	// EntryAlign pads every heap entry to this boundary.
	EntryAlign = 8
	// OffsetWidth is the width of one offset in the offset tail. The
	// paper passes the width to the FPGA as a job parameter; 32 bits
	// covers the 4 GB shareable region.
	OffsetWidth = 4
)

// EntryStride returns the heap bytes occupied by one string of length n:
// metadata, the bytes, the NUL terminator, and alignment padding.
func EntryStride(n int) int {
	return (EntryMeta + n + 1 + EntryAlign - 1) / EntryAlign * EntryAlign
}

// mem is a growable allocation, either inside a shared region or in plain
// Go memory.
type mem struct {
	region *shmem.Region
	addr   shmem.Addr
	buf    []byte
}

func allocMem(region *shmem.Region, size int) (mem, error) {
	if size < shmem.MinSlab {
		size = shmem.MinSlab
	}
	if region == nil {
		return mem{buf: make([]byte, size)}, nil
	}
	a, err := region.Alloc(size)
	if err != nil {
		return mem{}, err
	}
	buf, err := region.Bytes(a)
	if err != nil {
		return mem{}, err
	}
	return mem{region: region, addr: a, buf: buf}, nil
}

// grow reallocates to at least want bytes, copying used bytes.
func (m *mem) grow(used, want int) error {
	if want <= len(m.buf) {
		return nil
	}
	size := len(m.buf) * 2
	if size < want {
		size = want
	}
	nm, err := allocMem(m.region, size)
	if err != nil {
		return err
	}
	copy(nm.buf, m.buf[:used])
	if m.region != nil {
		if err := m.region.Free(m.addr); err != nil {
			return err
		}
	}
	*m = nm
	return nil
}

func (m *mem) free() {
	if m.region != nil && m.addr != 0 {
		_ = m.region.Free(m.addr)
		m.addr = 0
	}
	m.buf = nil
}

// Strings is a string column: a void-headed offset BAT plus a string heap.
type Strings struct {
	offs     mem
	heap     mem
	count    int
	heapUsed int
	// payload is the running total of appended string lengths.
	payload int
}

// NewStrings creates a string column, optionally inside a shared region,
// with capacity hints (rows, total payload bytes).
func NewStrings(region *shmem.Region, rowHint, byteHint int) (*Strings, error) {
	if rowHint < 1 {
		rowHint = 1
	}
	if byteHint < 1 {
		byteHint = 1
	}
	offs, err := allocMem(region, rowHint*OffsetWidth)
	if err != nil {
		return nil, err
	}
	heap, err := allocMem(region, HeapHeader+byteHint)
	if err != nil {
		offs.free()
		return nil, err
	}
	s := &Strings{offs: offs, heap: heap, heapUsed: HeapHeader}
	return s, nil
}

// Append adds a string to the column.
func (s *Strings) Append(v string) error {
	stride := EntryStride(len(v))
	if err := s.heap.grow(s.heapUsed, s.heapUsed+stride); err != nil {
		return err
	}
	if err := s.offs.grow(s.count*OffsetWidth, (s.count+1)*OffsetWidth); err != nil {
		return err
	}
	entry := s.heap.buf[s.heapUsed : s.heapUsed+stride]
	// Per-entry metadata: the string length, mirroring MonetDB's heap
	// bookkeeping. The FPGA ignores it (strings are null-terminated).
	binary.LittleEndian.PutUint32(entry[:EntryMeta], uint32(len(v)))
	copy(entry[EntryMeta:], v)
	entry[EntryMeta+len(v)] = 0
	for i := EntryMeta + len(v) + 1; i < stride; i++ {
		entry[i] = 0
	}
	off := uint32(s.heapUsed + EntryMeta)
	binary.LittleEndian.PutUint32(s.offs.buf[s.count*OffsetWidth:], off)
	s.heapUsed += stride
	s.count++
	s.payload += len(v)
	return nil
}

// Count returns the number of rows.
func (s *Strings) Count() int { return s.count }

// Get returns row i as a byte slice aliasing the heap (valid until the next
// Append). It panics on out-of-range i, matching slice semantics.
func (s *Strings) Get(i int) []byte {
	if i < 0 || i >= s.count {
		panic(fmt.Sprintf("bat: Strings.Get(%d) of %d rows", i, s.count))
	}
	off := binary.LittleEndian.Uint32(s.offs.buf[i*OffsetWidth:])
	b := s.heap.buf[off:]
	// Strings are null-terminated; length metadata makes this O(1).
	n := binary.LittleEndian.Uint32(s.heap.buf[off-EntryMeta:])
	return b[:n:n]
}

// GetString returns row i as a string.
func (s *Strings) GetString(i int) string { return string(s.Get(i)) }

// HeapBytes returns the raw heap, as mapped for the FPGA.
func (s *Strings) HeapBytes() []byte { return s.heap.buf[:s.heapUsed] }

// OffsetBytes returns the raw offset tail, as mapped for the FPGA.
func (s *Strings) OffsetBytes() []byte { return s.offs.buf[:s.count*OffsetWidth] }

// PayloadBytes returns the useful string bytes (excluding metadata,
// padding, offsets), the numerator of the paper's "useful throughput".
func (s *Strings) PayloadBytes() int { return s.payload }

// Free releases region-backed allocations.
func (s *Strings) Free() {
	s.offs.free()
	s.heap.free()
	s.count, s.heapUsed, s.payload = 0, 0, 0
}

// Shorts is a BAT with a void head and a 16-bit value tail — the result
// type of the HUDF (§4.1: "the return type is short").
type Shorts struct {
	m     mem
	count int
}

// NewShorts creates a short column with a row-capacity hint.
func NewShorts(region *shmem.Region, rowHint int) (*Shorts, error) {
	if rowHint < 1 {
		rowHint = 1
	}
	m, err := allocMem(region, rowHint*2)
	if err != nil {
		return nil, err
	}
	return &Shorts{m: m}, nil
}

// Append adds a value.
func (c *Shorts) Append(v uint16) error {
	if err := c.m.grow(c.count*2, (c.count+1)*2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(c.m.buf[c.count*2:], v)
	c.count++
	return nil
}

// SetLen presizes the column to n rows (zero-filled), for engines that
// write results by index.
func (c *Shorts) SetLen(n int) error {
	if err := c.m.grow(c.count*2, n*2); err != nil {
		return err
	}
	if n > c.count {
		clear(c.m.buf[c.count*2 : n*2])
	}
	c.count = n
	return nil
}

// Set writes row i.
func (c *Shorts) Set(i int, v uint16) {
	binary.LittleEndian.PutUint16(c.m.buf[i*2:], v)
}

// Get returns row i.
func (c *Shorts) Get(i int) uint16 {
	if i < 0 || i >= c.count {
		panic(fmt.Sprintf("bat: Shorts.Get(%d) of %d rows", i, c.count))
	}
	return binary.LittleEndian.Uint16(c.m.buf[i*2:])
}

// Count returns the number of rows.
func (c *Shorts) Count() int { return c.count }

// Bytes returns the raw tail.
func (c *Shorts) Bytes() []byte { return c.m.buf[:c.count*2] }

// Addr returns the shared-memory address (zero when not region-backed).
func (c *Shorts) Addr() shmem.Addr { return c.m.addr }

// Free releases region-backed allocations.
func (c *Shorts) Free() { c.m.free(); c.count = 0 }

// Ints is a BAT with a void head and a 32-bit integer tail.
type Ints struct {
	m     mem
	count int
}

// NewInts creates an int column with a row-capacity hint.
func NewInts(region *shmem.Region, rowHint int) (*Ints, error) {
	if rowHint < 1 {
		rowHint = 1
	}
	m, err := allocMem(region, rowHint*4)
	if err != nil {
		return nil, err
	}
	return &Ints{m: m}, nil
}

// Append adds a value.
func (c *Ints) Append(v int32) error {
	if err := c.m.grow(c.count*4, (c.count+1)*4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(c.m.buf[c.count*4:], uint32(v))
	c.count++
	return nil
}

// Get returns row i.
func (c *Ints) Get(i int) int32 {
	if i < 0 || i >= c.count {
		panic(fmt.Sprintf("bat: Ints.Get(%d) of %d rows", i, c.count))
	}
	return int32(binary.LittleEndian.Uint32(c.m.buf[i*4:]))
}

// Count returns the number of rows.
func (c *Ints) Count() int { return c.count }

// Bytes returns the raw tail.
func (c *Ints) Bytes() []byte { return c.m.buf[:c.count*4] }

// Addr returns the shared-memory address (zero when not region-backed).
func (c *Ints) Addr() shmem.Addr { return c.m.addr }

// Free releases region-backed allocations.
func (c *Ints) Free() { c.m.free(); c.count = 0 }
