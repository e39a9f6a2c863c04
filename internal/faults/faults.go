// Package faults is the fault-injection side of the robustness story: a
// deterministic, seedable Injector that models the hardware trouble the
// paper's platform design implies but its prototype never exercises. The
// HUDF busy-waits on a done bit because HARP has no FPGA-to-CPU interrupts
// (§4.2.2), and the AAL handshake is the only evidence that the right
// bitstream is loaded (§2.2) — so a wedged Regex Engine, a bit flip on the
// config vector in transit, or a clobbered Device Status Memory page would
// hang or corrupt a stock implementation. The injector produces exactly
// those events; internal/hal carries the defenses (checksums, watchdog,
// per-engine circuit breaker) and internal/core the graceful degradation to
// the software operator.
//
// A nil *Injector is valid and means "no injection": every hook is
// nil-safe and returns the no-fault answer without touching any state, so
// the production path is bit-identical with injection disabled.
//
// Injection decisions are driven by a splitmix64 stream seeded from
// Options.Seed, so a fault scenario replays exactly given the same
// submission order. Configuration comes from Options directly, from a spec
// string (the -faults flag of doppiobench), or from the DOPPIO_FAULTS
// environment variable (the CI fault matrix).
package faults

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Class enumerates the injectable fault classes.
type Class int

const (
	// StuckDone wedges a job: the engine never writes its status block,
	// so the done bit the UDF busy-waits on never sets.
	StuckDone Class = iota
	// ConfigCorrupt flips a bit of the configuration vector between
	// parametrize and engine ingest.
	ConfigCorrupt
	// StatusCorrupt flips a byte of the status block after the engine
	// wrote it.
	StatusCorrupt
	// HandshakeLoss clobbers the DSM handshake words before a submit, as
	// if the AFU lost its AAL session.
	HandshakeLoss
	// EngineDrop wedges one Regex Engine: it stops accepting jobs
	// mid-batch.
	EngineDrop
	// QPIDegrade scales the simulated QPI bandwidth down for the whole
	// batch.
	QPIDegrade
)

// String names the class the way the spec grammar and telemetry do.
func (c Class) String() string {
	switch c {
	case StuckDone:
		return "stuck-done"
	case ConfigCorrupt:
		return "config-corrupt"
	case StatusCorrupt:
		return "status-corrupt"
	case HandshakeLoss:
		return "handshake-loss"
	case EngineDrop:
		return "engine-drop"
	case QPIDegrade:
		return "qpi-degrade"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Options configures an Injector. The zero value injects nothing.
type Options struct {
	// Seed selects the deterministic decision stream.
	Seed uint64
	// Per-opportunity probabilities in [0,1].
	StuckDone     float64
	ConfigCorrupt float64
	StatusCorrupt float64
	HandshakeLoss float64
	// QPIFactor scales the simulated QPI bandwidth when in (0,1); 0 or 1
	// disables the class.
	QPIFactor float64
	// DropEnabled turns the engine drop-out on; DropEngine is the engine
	// that wedges after accepting DropAfter jobs. It recovers after
	// DropRecover readmission probes (0: never).
	DropEnabled bool
	DropEngine  int
	DropAfter   int
	DropRecover int
}

// Injector is a deterministic fault source. All methods are safe for
// concurrent use and nil-safe (a nil injector never fires).
type Injector struct {
	mu   sync.Mutex
	opts Options
	rng  uint64
	drop struct {
		accepted int // jobs the drop engine has accepted so far
		down     bool
		probes   int // readmission probes seen while down
	}
}

// New creates an injector for o.
func New(o Options) *Injector {
	return &Injector{opts: o, rng: o.Seed}
}

// NewFromSpec parses a spec string (see Parse) and creates the injector.
func NewFromSpec(spec string) (*Injector, error) {
	o, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return New(o), nil
}

// next advances the splitmix64 stream. Caller holds in.mu.
func (in *Injector) next() uint64 {
	in.rng += 0x9E3779B97F4A7C15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// chance draws a deterministic bernoulli with probability p. p <= 0 never
// fires and consumes no stream state, so a zero-rate class leaves the
// decision sequence of the others untouched.
func (in *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// rate returns the configured probability of a probabilistic class.
func (in *Injector) rate(c Class) float64 {
	switch c {
	case StuckDone:
		return in.opts.StuckDone
	case ConfigCorrupt:
		return in.opts.ConfigCorrupt
	case StatusCorrupt:
		return in.opts.StatusCorrupt
	case HandshakeLoss:
		return in.opts.HandshakeLoss
	}
	return 0
}

// Hit decides whether probabilistic class c fires at this opportunity.
func (in *Injector) Hit(c Class) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.chance(in.rate(c))
}

// QPIFactor returns the bandwidth degradation factor, or 0 when the class
// is off.
func (in *Injector) QPIFactor() float64 {
	if in == nil {
		return 0
	}
	f := in.opts.QPIFactor
	if f <= 0 || f >= 1 {
		return 0
	}
	return f
}

// EngineAccepts models the drop engine's job-accept handshake: it accepts
// DropAfter jobs, then wedges and rejects everything until readmitted.
func (in *Injector) EngineAccepts(e int) bool {
	if in == nil {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.opts.DropEnabled || e != in.opts.DropEngine {
		return true
	}
	if in.drop.down {
		return false
	}
	if in.drop.accepted >= in.opts.DropAfter {
		in.drop.down = true
		return false
	}
	in.drop.accepted++
	return true
}

// ProbeEngine is the health tracker's readmission probe. A wedged engine
// recovers after DropRecover probes (never, when 0); a recovered engine may
// accept another DropAfter jobs before wedging again.
func (in *Injector) ProbeEngine(e int) bool {
	if in == nil {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.opts.DropEnabled || e != in.opts.DropEngine || !in.drop.down {
		return true
	}
	in.drop.probes++
	if in.opts.DropRecover > 0 && in.drop.probes >= in.opts.DropRecover {
		in.drop.down = false
		in.drop.probes = 0
		in.drop.accepted = 0
		return true
	}
	return false
}

// CorruptCopy returns buf with one deterministic bit flipped, leaving the
// original untouched (the fault hits the in-flight copy, not the UDF's
// buffer).
func (in *Injector) CorruptCopy(buf []byte) []byte {
	if in == nil || len(buf) == 0 {
		return buf
	}
	out := append([]byte(nil), buf...)
	in.mu.Lock()
	r := in.next()
	in.mu.Unlock()
	out[int(r%uint64(len(out)))] ^= 1 << ((r >> 32) % 8)
	return out
}

// FlipByte flips one deterministic byte of buf in place (never to the same
// value).
func (in *Injector) FlipByte(buf []byte) {
	if in == nil || len(buf) == 0 {
		return
	}
	in.mu.Lock()
	r := in.next()
	in.mu.Unlock()
	buf[int(r%uint64(len(buf)))] ^= 0x55
}

// Clobber overwrites buf with recognizably-wrong bytes (every byte changes).
func (in *Injector) Clobber(buf []byte) {
	for i := range buf {
		buf[i] ^= 0xA5
	}
}

// Parse decodes the -faults / DOPPIO_FAULTS spec grammar:
//
//	SPEC  := item (',' item)*
//	item  := 'seed=' N
//	       | ('stuck-done' | 'config-corrupt' | 'status-corrupt'
//	         | 'handshake-loss') ['=' P]      (bare class: P = 1)
//	       | 'qpi=' F                         (bandwidth factor in (0,1))
//	       | 'engine-drop=' E ['@' AFTER] ['+' RECOVER]
//
// Example: "stuck-done=0.2,engine-drop=1@8+3,qpi=0.5,seed=42" wedges 20 %
// of jobs, drops engine 1 after its 8th job (recovering after 3 readmission
// probes), and halves QPI bandwidth, all under seed 42.
func Parse(spec string) (Options, error) {
	var o Options
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return o, errors.New("faults: empty spec")
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val := item, ""
		if i := strings.IndexAny(item, "=:"); i >= 0 {
			key, val = item[:i], item[i+1:]
		}
		prob := func() (float64, error) {
			if val == "" {
				return 1, nil
			}
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return 0, fmt.Errorf("faults: bad probability %q for %s", val, key)
			}
			return p, nil
		}
		var err error
		switch key {
		case "seed":
			o.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				return o, fmt.Errorf("faults: bad seed %q", val)
			}
		case "stuck-done":
			o.StuckDone, err = prob()
		case "config-corrupt":
			o.ConfigCorrupt, err = prob()
		case "status-corrupt":
			o.StatusCorrupt, err = prob()
		case "handshake-loss":
			o.HandshakeLoss, err = prob()
		case "qpi":
			f, ferr := strconv.ParseFloat(val, 64)
			if ferr != nil || f <= 0 || f >= 1 {
				return o, fmt.Errorf("faults: qpi factor %q must be in (0,1)", val)
			}
			o.QPIFactor = f
		case "engine-drop":
			if err := parseDrop(val, &o); err != nil {
				return o, err
			}
		default:
			return o, fmt.Errorf("faults: unknown spec item %q", key)
		}
		if err != nil {
			return o, err
		}
	}
	return o, nil
}

// parseDrop decodes E['@'AFTER]['+'RECOVER].
func parseDrop(val string, o *Options) error {
	rest := val
	rec := 0
	if i := strings.IndexByte(rest, '+'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n < 0 {
			return fmt.Errorf("faults: bad engine-drop recover %q", rest[i+1:])
		}
		rec, rest = n, rest[:i]
	}
	after := 0
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n < 0 {
			return fmt.Errorf("faults: bad engine-drop job count %q", rest[i+1:])
		}
		after, rest = n, rest[:i]
	}
	e, err := strconv.Atoi(rest)
	if err != nil || e < 0 {
		return fmt.Errorf("faults: bad engine-drop engine %q", val)
	}
	o.DropEnabled = true
	o.DropEngine = e
	o.DropAfter = after
	o.DropRecover = rec
	return nil
}

// EnvVar is the environment variable the process default injector is read
// from (the CI fault matrix sets it).
const EnvVar = "DOPPIO_FAULTS"

// Default returns the process default injector: the one DOPPIO_FAULTS
// describes, parsed on first use and immutable afterwards, else nil (no
// injection). It is input from outside the program — the way the CI fault
// matrix reaches every hal.New of a test process; a program that wants an
// injector passes one (core.Options.Faults).
func Default() *Injector { return envInjector() }

var envInjector = sync.OnceValue(func() *Injector {
	in, err := FromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "faults: ignoring %s: %v\n", EnvVar, err)
	}
	return in
})

// FromEnv parses DOPPIO_FAULTS directly, bypassing Default's cache (tests
// use it with t.Setenv). It returns nil when the variable is unset.
func FromEnv() (*Injector, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil, nil
	}
	return NewFromSpec(spec)
}
