package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"doppiodb/internal/core"
	"doppiodb/internal/explain"
	"doppiodb/internal/faults"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/hal"
	"doppiodb/internal/obs"
	"doppiodb/internal/sim"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// The soak experiment is the overload-protection layer's acceptance run: N
// concurrent clients hammer one system through the full stack while the
// fault injector drops engines, wedges done bits, and degrades the QPI
// link, with the admission caps set tight enough that load shedding
// actually fires and every query carrying a simulated deadline budget.
// Every query must end in exactly one ledger bucket — completed, degraded,
// shed, or failed — with zero stuck and zero leaked goroutines, and the
// ledger must balance: shed + completed + degraded (+ failed, expected 0)
// == submitted. CI runs it on every push and gates on that identity.

// SoakSpec is the default fault cocktail of the soak run: occasional wedged
// done bits (the HAL's watchdog + query retry recover these), one engine
// drop that heals after two readmission probes, and a mildly degraded QPI
// link so cost-model ETAs run hot against the deadline budgets.
const SoakSpec = "stuck-done=0.02,engine-drop=2@6+2,qpi=0.9"

// Soak knobs: caps sized so ~10 clients genuinely collide with the
// backlog, a per-query budget a few healthy service times wide, and a
// wall-clock watchdog that only trips when something is truly stuck.
const (
	soakPerClient      = 12
	soakMaxGroups      = 4
	soakMaxJobs        = 16
	soakBudget         = 800 * sim.Microsecond
	soakWallTimeout    = 120 * time.Second
	soakGoroutineGrace = 2 * time.Second
	// The chaos thread's choke cadence: the device is paused for
	// soakChokeFor, then resumed for soakOpenFor, in a loop for the whole
	// run. The choke window is sized to outlast several clients'
	// CPU-side query prep so dispatches genuinely pile into the capped
	// backlog (shed fires); on resume the deep backlog drains at degraded
	// QPI rate, so cost-model ETAs overrun the budget (admission
	// refusals) and queued groups outlive their deadlines (round-boundary
	// aborts).
	soakChokeFor = 25 * time.Millisecond
	soakOpenFor  = 5 * time.Millisecond
)

// SoakResult is the run's ledger.
type SoakResult struct {
	Clients   int    `json:"clients"`
	PerClient int    `json:"per_client"`
	Spec      string `json:"fault_spec"`

	// The query ledger. Submitted is clients × per_client; every query
	// lands in exactly one of the next four buckets.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Degraded  int64 `json:"degraded"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	// Stuck counts queries that had not returned when the wall-clock
	// watchdog fired (must be 0).
	Stuck int64 `json:"stuck"`

	// Recovery machinery accounting, from the run's private registry.
	Retries          int64 `json:"retries"`
	Recovered        int64 `json:"recovered"`
	FabricResets     int64 `json:"fabric_resets"`
	ShedAtCap        int64 `json:"shed_at_cap"`
	DeadlineRefused  int64 `json:"deadline_refused"`
	DeadlineExpired  int64 `json:"deadline_expired"`
	SoftwareFallback int64 `json:"software_fallback"`

	// Backlog bounds: the observed peak must respect the configured cap.
	BacklogPeakGroups int64 `json:"backlog_peak_groups"`
	BacklogCapGroups  int64 `json:"backlog_cap_groups"`

	// Leak detection: goroutine count before the system booted and after
	// it closed and the scheduler settled.
	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`

	// FinalState is the /health state machine verdict after Close-side
	// recovery: "ok" unless the injector left engines quarantined.
	FinalState string `json:"final_state"`

	// SLO verdicts from the run's private observer: the multi-window
	// burn-rate alert must latch under the fault cocktail (the shed mass
	// torches the 99% error budget), and the wide-event log must have
	// retained every notable (non-completed) query.
	SLOAlertActive  bool    `json:"slo_alert_active"`
	SLOAlertsFired  int64   `json:"slo_alerts_fired"`
	SLOFastBurn     float64 `json:"slo_fast_burn"`
	SLOSlowBurn     float64 `json:"slo_slow_burn"`
	QueryLogKept    uint64  `json:"querylog_kept"`
	QueryLogNotable uint64  `json:"querylog_notable"`
}

// Balanced reports whether the ledger accounts for every submitted query.
func (r *SoakResult) Balanced() bool {
	return r.Completed+r.Degraded+r.Shed+r.Failed == r.Submitted && r.Stuck == 0
}

// Soak runs the chaos soak: cfg.Clients concurrent clients, soakPerClient
// queries each, against a system with SoakSpec faults (seeded from
// cfg.Seed), shed-policy admission caps, and a per-query simulated
// deadline. The run uses private telemetry/recorder/auditor instances so a
// `-experiment all` sweep's other measurements stay untouched.
func Soak(cfg Config) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	spec := fmt.Sprintf("%s,seed=%d", SoakSpec, cfg.Seed)
	inj, err := faults.NewFromSpec(spec)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	rec := flightrec.New(4096)
	aud := explain.NewAuditor(explain.Options{})
	ob := obs.New(obs.Options{})

	before := runtime.NumGoroutine()
	cfg.Base = core.Options{Telemetry: reg, Faults: inj, Recorder: rec, Auditor: aud, Obs: ob}
	s, err := cfg.newSystem(nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.HAL.SetAdmission(hal.AdmissionLimits{
		MaxGroups: soakMaxGroups,
		MaxJobs:   soakMaxJobs,
		Policy:    hal.PolicyShed,
	})

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

	res := &SoakResult{
		Clients:          cfg.Clients,
		PerClient:        soakPerClient,
		Spec:             spec,
		Submitted:        int64(cfg.Clients) * soakPerClient,
		BacklogCapGroups: soakMaxGroups,
		GoroutinesBefore: before,
	}
	// The chaos thread chokes the device on a fixed cadence so overload is
	// reproducibly reached regardless of how fast the host machine runs
	// the clients' CPU-side work.
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for {
			s.HAL.Pause()
			select {
			case <-stopChaos:
				s.HAL.Resume()
				return
			case <-time.After(soakChokeFor):
			}
			s.HAL.Resume()
			select {
			case <-stopChaos:
				return
			case <-time.After(soakOpenFor):
			}
		}
	}()

	var wg sync.WaitGroup
	var completed, degraded, shed, failed, returned atomic.Int64
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := hal.WithBudget(context.Background(), soakBudget)
			for q := 0; q < soakPerClient; q++ {
				r, err := s.Exec(ctx, col.Strs, workload.Q1Regex, token.Options{})
				switch {
				case err == nil && r.Degraded:
					degraded.Add(1)
				case err == nil:
					completed.Add(1)
				case errors.Is(err, hal.ErrOverload),
					errors.Is(err, hal.ErrDeadlineExceeded):
					shed.Add(1)
				default:
					failed.Add(1)
				}
				returned.Add(1)
			}
		}()
	}
	// The wall-clock watchdog is the stuck-query detector: the entire run
	// is simulated time, so two minutes of wall clock only elapse if a
	// query's Await never returns.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(soakWallTimeout):
		res.Stuck = res.Submitted - returned.Load()
	}
	close(stopChaos)
	chaosWG.Wait()
	res.Completed = completed.Load()
	res.Degraded = degraded.Load()
	res.Shed = shed.Load()
	res.Failed = failed.Load()

	res.Retries = reg.Counter("core.retry.attempts").Value()
	res.Recovered = reg.Counter("core.retry.recovered").Value()
	res.FabricResets = reg.Counter("hal.fabric_resets").Value()
	res.ShedAtCap = reg.Counter("hal.admission.shed").Value()
	res.DeadlineRefused = reg.Counter("hal.admission.deadline_refused").Value()
	res.DeadlineExpired = reg.Counter("hal.admission.deadline_expired").Value()
	res.SoftwareFallback = reg.Counter("core.fallback.software").Value()
	res.BacklogPeakGroups = reg.Gauge("hal.backlog_peak_groups").Value()
	res.FinalState = s.HAL.State()
	slo := ob.SLO.Report()
	res.SLOAlertActive = slo.AlertActive
	res.SLOAlertsFired = slo.AlertsFired
	res.SLOFastBurn = slo.FastBurn
	res.SLOSlowBurn = slo.SlowBurn
	ql := ob.Log.Stats()
	res.QueryLogKept = ql.Kept
	res.QueryLogNotable = ql.Notable

	s.Close()
	// Give the runtime's goroutines (event loop, watchdog timers) a
	// moment to unwind before counting leaks.
	deadline := time.Now().Add(soakGoroutineGrace)
	for {
		res.GoroutinesAfter = runtime.NumGoroutine()
		if res.GoroutinesAfter <= before || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return res, nil
}

// Render prints the soak transcript.
func (r *SoakResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Overload/recovery soak (concurrent clients + fault injection + admission caps)")
	fmt.Fprintf(w, "  clients %d × %d queries, faults %q, caps %d groups/%d jobs (shed), budget per query\n",
		r.Clients, r.PerClient, r.Spec, r.BacklogCapGroups, soakMaxJobs)
	fmt.Fprintf(w, "  %-12s %6d\n", "submitted", r.Submitted)
	fmt.Fprintf(w, "  %-12s %6d\n", "completed", r.Completed)
	fmt.Fprintf(w, "  %-12s %6d   (software fallback after retries exhausted)\n", "degraded", r.Degraded)
	fmt.Fprintf(w, "  %-12s %6d   (%d at cap, %d ETA-refused, %d expired in queue)\n",
		"shed", r.Shed, r.ShedAtCap, r.DeadlineRefused, r.DeadlineExpired)
	fmt.Fprintf(w, "  %-12s %6d\n", "failed", r.Failed)
	fmt.Fprintf(w, "  %-12s %6d\n", "stuck", r.Stuck)
	balance := "BALANCED"
	if !r.Balanced() {
		balance = "UNBALANCED"
	}
	fmt.Fprintf(w, "  ledger: %d + %d + %d + %d = %d  [%s]\n",
		r.Completed, r.Degraded, r.Shed, r.Failed, r.Submitted, balance)
	fmt.Fprintf(w, "  recovery: %d retries (%d queries recovered), %d fabric reset(s)\n",
		r.Retries, r.Recovered, r.FabricResets)
	alert := "quiet"
	if r.SLOAlertActive {
		alert = "FIRING"
	}
	fmt.Fprintf(w, "  slo: burn fast %.1fx / slow %.1fx, alert %s (%d fired); query log kept %d (%d notable)\n",
		r.SLOFastBurn, r.SLOSlowBurn, alert, r.SLOAlertsFired, r.QueryLogKept, r.QueryLogNotable)
	fmt.Fprintf(w, "  backlog peak %d group(s) vs cap %d; goroutines %d -> %d; final state %q\n",
		r.BacklogPeakGroups, r.BacklogCapGroups, r.GoroutinesBefore, r.GoroutinesAfter, r.FinalState)
}
