package faults

import (
	"bytes"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Hit(StuckDone) || in.Hit(ConfigCorrupt) {
		t.Error("nil injector fired")
	}
	if !in.EngineAccepts(0) || !in.ProbeEngine(0) {
		t.Error("nil injector rejected an engine")
	}
	if in.QPIFactor() != 0 {
		t.Error("nil injector degraded QPI")
	}
	buf := []byte{1, 2, 3}
	if got := in.CorruptCopy(buf); !bytes.Equal(got, buf) {
		t.Error("nil injector corrupted a vector")
	}
	in.FlipByte(buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Error("nil injector flipped a byte")
	}
}

func TestDeterministicReplay(t *testing.T) {
	draw := func() []bool {
		in := New(Options{Seed: 42, StuckDone: 0.5, StatusCorrupt: 0.3})
		var seq []bool
		for i := 0; i < 64; i++ {
			seq = append(seq, in.Hit(StuckDone), in.Hit(StatusCorrupt))
		}
		return seq
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical seeds", i)
		}
	}
	fired := false
	for _, v := range a {
		fired = fired || v
	}
	if !fired {
		t.Error("0.5-rate class never fired in 64 draws")
	}
}

func TestZeroRateConsumesNoStream(t *testing.T) {
	// A disabled class must not perturb the decision sequence of enabled
	// ones: stuck-done decisions are identical whether or not a zero-rate
	// class is interleaved.
	with := New(Options{Seed: 7, StuckDone: 0.5})
	without := New(Options{Seed: 7, StuckDone: 0.5})
	for i := 0; i < 32; i++ {
		with.Hit(ConfigCorrupt) // rate 0
		if with.Hit(StuckDone) != without.Hit(StuckDone) {
			t.Fatalf("zero-rate class perturbed the stream at draw %d", i)
		}
	}
}

func TestEngineDropLifecycle(t *testing.T) {
	in := New(Options{DropEnabled: true, DropEngine: 1, DropAfter: 2, DropRecover: 3})
	// Other engines are never affected.
	for i := 0; i < 10; i++ {
		if !in.EngineAccepts(0) || !in.EngineAccepts(2) {
			t.Fatal("non-drop engine rejected a job")
		}
	}
	// Engine 1 accepts DropAfter jobs, then wedges.
	if !in.EngineAccepts(1) || !in.EngineAccepts(1) {
		t.Fatal("drop engine rejected before DropAfter")
	}
	if in.EngineAccepts(1) {
		t.Fatal("drop engine accepted past DropAfter")
	}
	// Recovers on the third readmission probe, then runs again.
	if in.ProbeEngine(1) || in.ProbeEngine(1) {
		t.Fatal("engine recovered too early")
	}
	if !in.ProbeEngine(1) {
		t.Fatal("engine did not recover after DropRecover probes")
	}
	if !in.EngineAccepts(1) {
		t.Fatal("recovered engine rejected a job")
	}
}

func TestEngineDropNeverRecovers(t *testing.T) {
	in := New(Options{DropEnabled: true, DropEngine: 0})
	if in.EngineAccepts(0) {
		t.Fatal("DropAfter=0 engine accepted a job")
	}
	for i := 0; i < 100; i++ {
		if in.ProbeEngine(0) {
			t.Fatal("DropRecover=0 engine recovered")
		}
	}
}

func TestCorruptionPrimitives(t *testing.T) {
	in := New(Options{Seed: 3})
	orig := bytes.Repeat([]byte{0xAB}, 64)
	cp := in.CorruptCopy(orig)
	if bytes.Equal(cp, orig) {
		t.Error("CorruptCopy changed nothing")
	}
	diff := 0
	for i := range orig {
		if cp[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("CorruptCopy changed %d bytes, want 1 (single bit flip)", diff)
	}
	buf := bytes.Repeat([]byte{0xCD}, 24)
	in.FlipByte(buf)
	if bytes.Equal(buf, bytes.Repeat([]byte{0xCD}, 24)) {
		t.Error("FlipByte changed nothing")
	}
	dsm := []byte{0x31, 0x4C, 0x41, 0x48}
	in.Clobber(dsm)
	for i, b := range dsm {
		if b == []byte{0x31, 0x4C, 0x41, 0x48}[i] {
			t.Errorf("Clobber left byte %d unchanged", i)
		}
	}
}

func TestParseSpec(t *testing.T) {
	o, err := Parse("stuck-done=0.2,config-corrupt,status-corrupt=0.1,handshake-loss=0.5,qpi=0.5,engine-drop=1@8+3,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Seed: 42, StuckDone: 0.2, ConfigCorrupt: 1, StatusCorrupt: 0.1,
		HandshakeLoss: 0.5, QPIFactor: 0.5,
		DropEnabled: true, DropEngine: 1, DropAfter: 8, DropRecover: 3,
	}
	if o != want {
		t.Errorf("Parse = %+v, want %+v", o, want)
	}
	// Colon separator and bare drop engine also work.
	o, err = Parse("stuck-done:1,engine-drop:2")
	if err != nil {
		t.Fatal(err)
	}
	if o.StuckDone != 1 || !o.DropEnabled || o.DropEngine != 2 || o.DropAfter != 0 {
		t.Errorf("colon form = %+v", o)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "stuck-done=2", "stuck-done=x", "qpi=0", "qpi=1",
		"qpi=nope", "seed=abc", "engine-drop=-1", "engine-drop=1@x",
		"engine-drop=1+x",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	if in, err := FromEnv(); err != nil || in != nil {
		t.Errorf("empty env: %v %v", in, err)
	}
	t.Setenv(EnvVar, "stuck-done=0.5,seed=9")
	in, err := FromEnv()
	if err != nil || in == nil || in.opts.StuckDone != 0.5 || in.opts.Seed != 9 {
		t.Fatalf("FromEnv: %v %v", in, err)
	}
	t.Setenv(EnvVar, "garbage=1")
	if _, err := FromEnv(); err == nil {
		t.Error("bad env spec accepted")
	}
}
