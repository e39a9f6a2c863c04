package hal

import (
	"context"
	"fmt"
	"testing"

	"doppiodb/internal/bat"
	"doppiodb/internal/config"
	"doppiodb/internal/engine"
	"doppiodb/internal/fpga"
	"doppiodb/internal/shmem"
	"doppiodb/internal/token"
)

func newHAL(t *testing.T) (*HAL, *shmem.Region) {
	t.Helper()
	region := shmem.NewRegion(1 << 30)
	dev, err := fpga.NewDevice(fpga.DefaultDeployment())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(region, dev)
	if err != nil {
		t.Fatal(err)
	}
	return h, region
}

func buildParams(t *testing.T, region *shmem.Region, pattern string, rows []string) (engine.JobParams, *bat.Strings, *bat.Shorts) {
	t.Helper()
	prog, err := token.CompilePattern(pattern, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := config.Encode(prog, config.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	col, err := bat.NewStrings(region, len(rows), len(rows)*80)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := col.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := bat.NewShorts(region, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SetLen(len(rows)); err != nil {
		t.Fatal(err)
	}
	return engine.JobParams{
		Config:      vec,
		Offsets:     col.OffsetBytes(),
		OffsetWidth: bat.OffsetWidth,
		Heap:        col.HeapBytes(),
		Count:       col.Count(),
		Result:      res.Bytes(),
	}, col, res
}

func TestHandshake(t *testing.T) {
	h, _ := newHAL(t)
	if !h.AFUPresent() {
		t.Error("AFU handshake failed")
	}
	if h.Engines() != 4 {
		t.Errorf("Engines = %d", h.Engines())
	}
}

func TestSubmitExecutesAndSetsDoneBit(t *testing.T) {
	h, region := newHAL(t)
	rows := []string{
		"John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
		"Anna|Miller|9 Lindenweg|80331|Muenchen",
		"Hans|Maier|3 Bahnhofstrasse|8004|Zuerich",
	}
	p, _, res := buildParams(t, region, `Strasse`, rows)
	j := submit(t, h, 0, p)
	if !j.Done() {
		t.Error("done bit not set in shared memory")
	}
	if j.Stats.Strings != 3 || j.Stats.Matches != 1 {
		t.Errorf("stats: %+v", j.Stats)
	}
	// Result BAT: nonzero only for the matching row, value = position of
	// the match's last character.
	if got := res.Get(0); got != 31 {
		t.Errorf("result[0] = %d, want 31", got)
	}
	if res.Get(1) != 0 || res.Get(2) != 0 {
		t.Errorf("non-matching rows: %d %d", res.Get(1), res.Get(2))
	}
	if _, err := completion(j); err != errPending {
		t.Errorf("completion before the runtime ran the job: %v", err)
	}
	comps := runAll(t, h, j)
	c, err := completion(j)
	if err != nil || c <= 0 {
		t.Errorf("completion after run: %v %v", c, err)
	}
	if comps[0].HWTime() != c {
		t.Errorf("completion record %v disagrees with the job's %v", comps[0].HWTime(), c)
	}
}

func TestSubmitToPartitioned(t *testing.T) {
	h, region := newHAL(t)
	rows := make([]string, 40)
	for i := range rows {
		s := "no match here"
		if i%4 == 0 {
			s = "Koblenzer Strasse"
		}
		rows[i] = s
	}
	p, _, res := buildParams(t, region, `Strasse`, rows)
	// Partition by row ranges across the four engines.
	per := len(rows) / 4
	var jobs []*Job
	for e := 0; e < 4; e++ {
		part := p
		part.Offsets = p.Offsets[e*per*4 : (e+1)*per*4]
		part.Count = per
		part.Result = p.Result[e*per*2 : (e+1)*per*2]
		jobs = append(jobs, submit(t, h, e, part))
	}
	comps := runAll(t, h, jobs...)
	total := 0
	for i, j := range jobs {
		total += j.Stats.Matches
		if j.Engine != i || comps[i].HWTime() <= 0 {
			t.Errorf("partition %d ran on engine %d in %v", i, j.Engine, comps[i].HWTime())
		}
	}
	if total != 10 {
		t.Errorf("partitioned matches = %d, want 10", total)
	}
	for i := range rows {
		want := uint16(0)
		if i%4 == 0 {
			want = 17
		}
		if got := res.Get(i); got != want {
			t.Errorf("row %d result = %d, want %d", i, got, want)
		}
	}
	for _, e := range []int{-1, 4, 9} {
		if _, err := h.SubmitToContext(context.Background(), e, p); err != ErrBadEngine {
			t.Errorf("engine %d: err = %v, want ErrBadEngine", e, err)
		}
	}
}

func TestCapacityErrorSurfaces(t *testing.T) {
	h, region := newHAL(t)
	// An expression over the deployed state budget must be rejected at
	// submit (the HUDF then falls back to hybrid execution).
	long := ""
	for i := 0; i < 20; i++ {
		long += fmt.Sprintf("(t%d)|", i)
	}
	long += "(zz)"
	p, _, _ := buildParams(t, region, `Strasse`, []string{"x"})
	prog, err := token.CompilePattern(long, token.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := config.Encode(prog, config.Limits{MaxStates: 64, MaxChars: 256})
	if err != nil {
		t.Fatal(err)
	}
	p.Config = vec
	if _, err := h.SubmitToContext(context.Background(), 0, p); err == nil {
		t.Error("over-capacity expression accepted")
	}
}

func TestRuntimeDrainsBacklog(t *testing.T) {
	h, region := newHAL(t)
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz"})
	// While admission is paused, dispatched groups pile up as queued load.
	h.Pause()
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j := submit(t, h, i%h.Engines(), p)
		dispatch(t, h, j)
		jobs = append(jobs, j)
	}
	if h.QueuedBytes() != 5*int64(jobs[0].Timing.TotalBytes()) {
		t.Errorf("paused queue holds %d bytes", h.QueuedBytes())
	}
	h.Resume()
	for i, j := range jobs {
		c, err := j.Await(context.Background())
		if err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
		if c.Done <= c.Admitted || c.QueueWait() < 0 {
			t.Errorf("job %d implausible record: %+v", i, c)
		}
	}
	if h.QueuedBytes() != 0 {
		t.Error("queued bytes left after the backlog drained")
	}
}

func TestAccessorsAndQueuedBytes(t *testing.T) {
	h, region := newHAL(t)
	if h.Device() == nil {
		t.Error("Device() nil")
	}
	if h.Params() == nil || h.Params().QPIBandwidth != 6.5e9 {
		t.Error("Params() wrong")
	}
	if h.QueuedBytes() != 0 {
		t.Error("fresh HAL has queued bytes")
	}
	p, _, _ := buildParams(t, region, `abc`, []string{"xxabc", "zzz", "abc"})
	j := submit(t, h, 0, p)
	if got := h.QueuedBytes(); got != int64(j.Timing.TotalBytes()) {
		t.Errorf("QueuedBytes = %d, want %d", got, j.Timing.TotalBytes())
	}
	runAll(t, h, j)
	if h.QueuedBytes() != 0 {
		t.Error("QueuedBytes after the job completed")
	}
}

func TestStatusPoolGrowsAcrossSlabs(t *testing.T) {
	// One 16KB slab holds 256 status blocks; submitting more jobs than
	// that must roll over to a fresh slab without corrupting done bits.
	h, region := newHAL(t)
	p, _, _ := buildParams(t, region, `abc`, []string{"abc"})
	var jobs []*Job
	for i := 0; i < 300; i++ {
		jobs = append(jobs, submit(t, h, i%h.Engines(), p))
	}
	for i, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %d lost its done bit", i)
		}
	}
}

func TestNewHALValidation(t *testing.T) {
	dev, _ := fpga.NewDevice(fpga.DefaultDeployment())
	if _, err := New(nil, dev); err == nil {
		t.Error("nil region accepted")
	}
	if _, err := New(shmem.NewRegion(1<<30), nil); err == nil {
		t.Error("nil device accepted")
	}
	// A region too small for the HAL's own structures fails cleanly.
	if _, err := New(shmem.NewRegion(4<<20), dev); err == nil {
		t.Error("region smaller than HAL structures accepted")
	}
}
