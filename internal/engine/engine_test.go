package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"doppiodb/internal/bat"
	"doppiodb/internal/config"
	"doppiodb/internal/fpga"
	"doppiodb/internal/token"
)

func mkEngine(t *testing.T) *Engine {
	t.Helper()
	return mkEngineWithPUs(t, fpga.DefaultDeployment().PUsPerEngine)
}

func mkEngineWithPUs(t *testing.T, pus int) *Engine {
	t.Helper()
	d := fpga.DefaultDeployment()
	d.PUsPerEngine = pus
	dev, err := fpga.NewDevice(d)
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, 0)
}

func mkParams(t *testing.T, pattern string, rows []string) (JobParams, *bat.Shorts) {
	t.Helper()
	prog, err := token.CompilePattern(pattern, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := config.Encode(prog, config.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	col, err := bat.NewStrings(nil, len(rows), len(rows)*80)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		col.Append(r)
	}
	res, _ := bat.NewShorts(nil, len(rows))
	res.SetLen(len(rows))
	return JobParams{
		Config:      vec,
		Offsets:     col.OffsetBytes(),
		OffsetWidth: bat.OffsetWidth,
		Heap:        col.HeapBytes(),
		Count:       col.Count(),
		Result:      res.Bytes(),
	}, res
}

func TestExecuteMatchesExpectedPositions(t *testing.T) {
	rows := []string{
		"John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
		"Anna|Miller|9 Lindenweg|80331|Muenchen",
		"",
		"Strasse",
	}
	e := mkEngine(t)
	p, res := mkParams(t, `Strasse`, rows)
	st, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Strings != 4 || st.Matches != 2 {
		t.Errorf("stats: %+v", st)
	}
	want := []uint16{31, 0, 0, 7}
	for i, w := range want {
		if got := res.Get(i); got != w {
			t.Errorf("result[%d] = %d, want %d", i, got, w)
		}
	}
	// Heap volume: strides of the four strings.
	wantHeap := 0
	for _, r := range rows {
		wantHeap += bat.EntryStride(len(r))
	}
	if st.HeapBytes != wantHeap {
		t.Errorf("HeapBytes = %d, want %d", st.HeapBytes, wantHeap)
	}
}

func TestExecuteParallelConsistency(t *testing.T) {
	// Large inputs stripe across PU workers; the result column and the
	// job's counters must not depend on how many, and every index must
	// agree with the reference interpreter.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pattern = `(Strasse|Str\.).*(8[0-9]{4})`
	rows := make([]string, 10_000)
	for i := range rows {
		if i%7 == 0 {
			rows[i] = fmt.Sprintf("row %d Koblenzer Strasse 8%04d", i, i%10000)
		} else {
			rows[i] = fmt.Sprintf("row %d Lindenweg %d", i, i)
		}
	}
	// Captured at the per-token-loop kernel: the simulated clock reads these.
	want := Stats{Strings: 10_000, Matches: 1429, HeapBytes: 330_752, PUCycles: 240_801}

	p1, res1 := mkParams(t, pattern, rows)
	st1, err := mkEngineWithPUs(t, 1).Execute(p1)
	if err != nil {
		t.Fatal(err)
	}
	pN, resN := mkParams(t, pattern, rows)
	stN, err := mkEngine(t).Execute(pN)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != want || stN != want {
		t.Errorf("stats: 1 worker %+v, N workers %+v, want %+v", st1, stN, want)
	}
	prog, _ := token.CompilePattern(pattern, token.Options{})
	for i, r := range rows {
		ref := uint16(prog.MatchString(r))
		if res1.Get(i) != ref || resN.Get(i) != ref {
			t.Fatalf("row %d: 1 worker=%d N workers=%d reference=%d", i, res1.Get(i), resN.Get(i), ref)
		}
	}
}

func TestStringReaderEdges(t *testing.T) {
	// The String Reader parses from an offset up to the next NUL or, for an
	// unterminated last string, up to the end of the heap.
	heap := []byte("abc\x00\x00xabc\x00zzabc")
	offsets := []uint32{
		0,  // "abc"
		3,  // the NUL that terminates it: empty
		4,  // an empty string of its own
		5,  // "xabc"
		6,  // into the middle of a string: "abc"
		9,  // a NUL again
		10, // "zzabc", unterminated at heap end
		14, // its last byte: "c"
	}
	wantRes := []uint16{3, 0, 0, 4, 3, 0, 5, 0}
	wantLen := []int{3, 0, 0, 4, 3, 0, 5, 1}

	p, _ := mkParams(t, `abc`, nil)
	p.Heap = heap
	p.Count = len(offsets)
	p.Offsets = make([]byte, 4*len(offsets))
	for i, off := range offsets {
		binary.LittleEndian.PutUint32(p.Offsets[4*i:], off)
	}
	p.Result = make([]byte, 2*len(offsets))
	st, err := mkEngine(t).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Strings: len(offsets)}
	for i, w := range wantRes {
		if got := binary.LittleEndian.Uint16(p.Result[2*i:]); got != w {
			t.Errorf("result[%d] (offset %d) = %d, want %d", i, offsets[i], got, w)
		}
		want.HeapBytes += bat.EntryStride(wantLen[i])
		if w != 0 {
			want.Matches++
			want.PUCycles += uint64(w)
		} else {
			want.PUCycles += uint64(wantLen[i])
		}
	}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestValidateRejects(t *testing.T) {
	e := mkEngine(t)
	good, _ := mkParams(t, `abc`, []string{"abc"})

	p := good
	p.Config = nil
	if _, err := e.Execute(p); err == nil {
		t.Error("missing config accepted")
	}
	p = good
	p.OffsetWidth = 8
	if _, err := e.Execute(p); err == nil {
		t.Error("bad offset width accepted")
	}
	p = good
	p.Count = 100
	if _, err := e.Execute(p); err == nil {
		t.Error("short offsets accepted")
	}
	p = good
	p.Result = make([]byte, 0)
	if _, err := e.Execute(p); err == nil {
		t.Error("short result accepted")
	}
	p = good
	p.Config = make([]byte, 64) // garbage vector
	if _, err := e.Execute(p); err == nil {
		t.Error("garbage config accepted")
	}
}

func TestBadOffsetFaults(t *testing.T) {
	e := mkEngine(t)
	p, _ := mkParams(t, `abc`, []string{"abc", "def"})
	// Corrupt the second offset to point outside the heap: the engine
	// must fail like the hardware would on an unmapped access.
	p.Offsets[4] = 0xFF
	p.Offsets[5] = 0xFF
	p.Offsets[6] = 0xFF
	p.Offsets[7] = 0x7F
	if _, err := e.Execute(p); err == nil {
		t.Error("out-of-heap offset accepted")
	}
}

func TestTimingJob(t *testing.T) {
	p := JobParams{OffsetWidth: 4}
	st := Stats{Strings: 1000, HeapBytes: 72_000}
	j := TimingJob(p, st)
	if j.OffsetBytes != 4000 || j.HeapBytes != 72000 || j.ResultBytes != 2000 {
		t.Errorf("TimingJob = %+v", j)
	}
}
