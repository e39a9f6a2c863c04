package shmem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocBasic(t *testing.T) {
	r := NewRegion(64 << 20)
	a, err := r.Alloc(100 << 10)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a == 0 {
		t.Fatal("Alloc returned nil address")
	}
	buf, err := r.Bytes(a)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if len(buf) < 100<<10 {
		t.Fatalf("slab too small: %d", len(buf))
	}
	buf[0], buf[len(buf)-1] = 0xAB, 0xCD
	buf2, _ := r.Bytes(a)
	if buf2[0] != 0xAB || buf2[len(buf2)-1] != 0xCD {
		t.Error("backing memory not stable across Bytes calls")
	}
}

func TestAllocTooSmallGoesToMalloc(t *testing.T) {
	r := NewRegion(64 << 20)
	if _, err := r.Alloc(8 << 10); err != ErrTooSmall {
		t.Errorf("Alloc(8KB) err = %v, want ErrTooSmall", err)
	}
	if _, err := r.Alloc(0); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := r.Alloc(-5); err == nil {
		t.Error("Alloc(-5) should fail")
	}
}

func TestSizeClasses(t *testing.T) {
	cases := []struct {
		n, want uint64
	}{
		{16 << 10, 16 << 10},
		{(16 << 10) + 1, 32 << 10},
		{1 << 20, 1 << 20},
		{(32 << 20), 32 << 20},
		{(32 << 20) + 1, 0}, // huge
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.want {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	r := NewRegion(64 << 20)
	a1, err := r.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Free(a1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	a2, err := r.Alloc(60 << 10) // same 64 KB class
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("freed slab not reused: %#x then %#x", a1, a2)
	}
	if err := r.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(a1); err != ErrBadFree {
		t.Errorf("double free err = %v, want ErrBadFree", err)
	}
	if err := r.Free(Addr(12345)); err != ErrBadFree {
		t.Errorf("bogus free err = %v, want ErrBadFree", err)
	}
}

func TestSmallSlabsPackWithinPage(t *testing.T) {
	r := NewRegion(64 << 20)
	// 128 slabs of 16 KB fit in one 2 MB page.
	for i := 0; i < 128; i++ {
		if _, err := r.Alloc(16 << 10); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if got := r.Stats().PinnedPages; got != 1 {
		t.Errorf("PinnedPages = %d, want 1 (16KB slabs must pack)", got)
	}
}

func TestHugeAllocation(t *testing.T) {
	r := NewRegion(256 << 20)
	a, err := r.Alloc(100 << 20) // > MaxSlab
	if err != nil {
		t.Fatal(err)
	}
	buf, err := r.Bytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 100<<20 {
		t.Fatalf("huge slab len %d", len(buf))
	}
	buf[99<<20] = 7 // touch deep into the run
}

func TestOutOfMemory(t *testing.T) {
	r := NewRegion(8 << 20) // 4 usable pages minus reserved page 0
	var addrs []Addr
	for {
		a, err := r.Alloc(2 << 20)
		if err == ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		t.Fatal("no allocations succeeded")
	}
	if uint64(len(addrs))*(2<<20) > r.Capacity() {
		t.Error("allocated beyond capacity")
	}
}

func TestNilAddressNeverAllocated(t *testing.T) {
	r := NewRegion(16 << 20)
	for i := 0; i < 4; i++ {
		a, err := r.Alloc(1 << 20)
		if err != nil {
			break
		}
		if a == 0 {
			t.Fatal("allocator returned the reserved nil address")
		}
	}
}

func TestBytesOfUnallocated(t *testing.T) {
	r := NewRegion(16 << 20)
	if _, err := r.Bytes(Addr(PageSize)); err == nil {
		t.Error("Bytes of unallocated address should fail")
	}
}

func TestStats(t *testing.T) {
	r := NewRegion(0)
	if r.Capacity() != DefaultCapacity {
		t.Errorf("default capacity = %d", r.Capacity())
	}
	a, _ := r.Alloc(1 << 20)
	s := r.Stats()
	if s.Live != 1<<20 || s.LiveSlabs != 1 {
		t.Errorf("stats after alloc: %+v", s)
	}
	r.Free(a)
	s = r.Stats()
	if s.Live != 0 || s.LiveSlabs != 0 {
		t.Errorf("stats after free: %+v", s)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	r := NewRegion(1 << 30)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a, err := r.Alloc(64 << 10)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				buf, err := r.Bytes(a)
				if err != nil {
					t.Errorf("bytes: %v", err)
					return
				}
				buf[0] = byte(i)
				if err := r.Free(a); err != nil {
					t.Errorf("free: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Stats().LiveSlabs; got != 0 {
		t.Errorf("LiveSlabs after all frees = %d", got)
	}
}

func TestAllocDistinctProperty(t *testing.T) {
	// Any sequence of live allocations must return pairwise
	// non-overlapping slabs.
	r := NewRegion(1 << 30)
	type span struct{ lo, hi uint64 }
	var spans []span
	f := func(kb uint8) bool {
		size := (int(kb)%512 + 16) << 10
		a, err := r.Alloc(size)
		if err != nil {
			return true // capacity exhaustion is fine
		}
		lo := uint64(a)
		hi := lo + uint64(sizeClass(uint64(size)))
		for _, s := range spans {
			if lo < s.hi && s.lo < hi {
				return false
			}
		}
		spans = append(spans, span{lo, hi})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
