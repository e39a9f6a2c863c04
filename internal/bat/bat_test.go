package bat

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"doppiodb/internal/shmem"
)

func TestEntryStride(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 8},   // meta 4 + NUL 1 -> 8
		{3, 8},   // 4+3+1 = 8
		{4, 16},  // 4+4+1 = 9 -> 16
		{64, 72}, // the paper's 64 B strings: 4+64+1 = 69 -> 72
	}
	for _, c := range cases {
		if got := EntryStride(c.n); got != c.want {
			t.Errorf("EntryStride(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestStringsAppendGet(t *testing.T) {
	for _, region := range []*shmem.Region{nil, shmem.NewRegion(64 << 20)} {
		s, err := NewStrings(region, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		vals := []string{
			"John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
			"",
			"x",
			strings.Repeat("long", 100),
		}
		for _, v := range vals {
			if err := s.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		if s.Count() != len(vals) {
			t.Fatalf("Count = %d", s.Count())
		}
		for i, v := range vals {
			if got := s.GetString(i); got != v {
				t.Errorf("Get(%d) = %q, want %q", i, got, v)
			}
		}
		if region != nil && (s.heap.addr == 0 || s.offs.addr == 0) {
			t.Error("region-backed column has zero addresses")
		}
		s.Free()
	}
}

func TestStringsHeapLayout(t *testing.T) {
	s, err := NewStrings(nil, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("abc")
	s.Append("de")
	heap := s.HeapBytes()
	offs := s.OffsetBytes()
	if len(offs) != 2*OffsetWidth {
		t.Fatalf("offsets len %d", len(offs))
	}
	// First string sits after header + meta; entries are null-terminated
	// and aligned.
	off0 := int(uint32(offs[0]) | uint32(offs[1])<<8 | uint32(offs[2])<<16 | uint32(offs[3])<<24)
	if off0 != HeapHeader+EntryMeta {
		t.Errorf("first offset = %d, want %d", off0, HeapHeader+EntryMeta)
	}
	if string(heap[off0:off0+3]) != "abc" || heap[off0+3] != 0 {
		t.Error("heap entry not null-terminated at offset")
	}
	if s.heapUsed != HeapHeader+EntryStride(3)+EntryStride(2) {
		t.Errorf("heap bytes in use = %d", s.heapUsed)
	}
	if s.PayloadBytes() != 5 {
		t.Errorf("PayloadBytes = %d, want 5", s.PayloadBytes())
	}
}

func TestStringsGrowthPreservesData(t *testing.T) {
	region := shmem.NewRegion(256 << 20)
	s, err := NewStrings(region, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Append(fmt.Sprintf("row-%06d-%s", i, strings.Repeat("p", i%50))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 97 {
		want := fmt.Sprintf("row-%06d-%s", i, strings.Repeat("p", i%50))
		if got := s.GetString(i); got != want {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestStringsGetPanics(t *testing.T) {
	s, _ := NewStrings(nil, 1, 1)
	s.Append("x")
	defer func() {
		if recover() == nil {
			t.Error("Get out of range did not panic")
		}
	}()
	s.Get(1)
}

func TestShorts(t *testing.T) {
	c, err := NewShorts(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Append(uint16(i * 3))
	}
	if c.Count() != 100 || c.Get(50) != 150 {
		t.Errorf("Shorts: count=%d get=%d", c.Count(), c.Get(50))
	}
	if err := c.SetLen(200); err != nil {
		t.Fatal(err)
	}
	if c.Get(150) != 0 {
		t.Error("SetLen did not zero-fill")
	}
	c.Set(150, 7)
	if c.Get(150) != 7 {
		t.Error("Set/Get roundtrip failed")
	}
	if len(c.Bytes()) != 400 {
		t.Errorf("Bytes len %d", len(c.Bytes()))
	}
}

func TestInts(t *testing.T) {
	region := shmem.NewRegion(32 << 20)
	c, err := NewInts(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		c.Append(int32(i - 5000))
	}
	if c.Get(0) != -5000 || c.Get(9999) != 4999 {
		t.Errorf("Ints ends: %d %d", c.Get(0), c.Get(9999))
	}
	if c.Addr() == 0 {
		t.Error("region-backed Ints has zero address")
	}
	c.Free()
	if c.Count() != 0 {
		t.Error("Free did not reset count")
	}
}

func TestStringsRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s, err := NewStrings(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 2000; i++ {
		n := r.Intn(100)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(r.Intn(255) + 1) // avoid NUL inside strings
		}
		v := string(b)
		want = append(want, v)
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		if got := s.GetString(i); got != w {
			t.Fatalf("row %d: %q != %q", i, got, w)
		}
	}
	// Payload accounting must equal the sum of lengths.
	total := 0
	for _, w := range want {
		total += len(w)
	}
	if got := s.PayloadBytes(); got != total {
		t.Errorf("PayloadBytes = %d, want %d", got, total)
	}
	// ... and the sum of the per-entry length headers in the heap.
	heap, offs, scanned := s.HeapBytes(), s.OffsetBytes(), 0
	for i := 0; i < s.Count(); i++ {
		off := binary.LittleEndian.Uint32(offs[i*OffsetWidth:])
		scanned += int(binary.LittleEndian.Uint32(heap[off-EntryMeta:]))
	}
	if got := s.PayloadBytes(); got != scanned {
		t.Errorf("PayloadBytes = %d, heap headers sum to %d", got, scanned)
	}
	s.Free()
	if got := s.PayloadBytes(); got != 0 {
		t.Errorf("PayloadBytes = %d after Free", got)
	}
}

func TestShortsIntsAccessors(t *testing.T) {
	region := shmem.NewRegion(64 << 20)
	s, err := NewShorts(region, 0) // hint clamps to 1
	if err != nil {
		t.Fatal(err)
	}
	s.Append(7)
	if s.Addr() == 0 {
		t.Error("Shorts.Addr zero for region-backed column")
	}
	s.Free()
	if s.Count() != 0 {
		t.Error("Shorts.Free did not reset")
	}
	c, err := NewInts(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Append(1)
	c.Append(2)
	if len(c.Bytes()) != 8 {
		t.Errorf("Ints.Bytes len %d", len(c.Bytes()))
	}
	if c.Addr() != 0 {
		t.Error("plain-memory Ints has nonzero address")
	}
}

func TestColumnsFailWhenRegionExhausted(t *testing.T) {
	region := shmem.NewRegion(4 << 20) // 2MB usable after the reserved page
	// Exhaust the region.
	var ok bool
	for i := 0; i < 64; i++ {
		if _, err := region.Alloc(1 << 20); err != nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("region never filled")
	}
	if _, err := NewStrings(region, 10, 1<<20); err == nil {
		t.Error("NewStrings in full region succeeded")
	}
	if _, err := NewShorts(region, 1<<20); err == nil {
		t.Error("NewShorts in full region succeeded")
	}
	if _, err := NewInts(region, 1<<20); err == nil {
		t.Error("NewInts in full region succeeded")
	}
}

func TestShortsIntsGetPanics(t *testing.T) {
	s, _ := NewShorts(nil, 1)
	s.Append(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Shorts.Get OOB did not panic")
			}
		}()
		s.Get(5)
	}()
	c, _ := NewInts(nil, 1)
	c.Append(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Ints.Get OOB did not panic")
			}
		}()
		c.Get(-1)
	}()
}
