package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"doppiodb/internal/bat"
	"doppiodb/internal/config"
	"doppiodb/internal/engine"
	"doppiodb/internal/explain"
	"doppiodb/internal/flightrec"
	"doppiodb/internal/invindex"
	"doppiodb/internal/memmodel"
	"doppiodb/internal/obs"
	"doppiodb/internal/pu"
	"doppiodb/internal/softregex"
	"doppiodb/internal/strmatch"
	"doppiodb/internal/telemetry"
	"doppiodb/internal/token"
	"doppiodb/internal/workload"
)

// Kernel probes call one layer's public function directly, between the
// traced phase and the end of the run, each repetition under its own span.
// A workload probes only the layers its ops reach, so a layer it bypasses
// reports 0.

const (
	// probeSample is how many generated rows feed the software-matcher
	// probes.
	probeSample = 2_000
	// probeReps is how often each probe repeats; the metric is the median.
	probeReps = 15
)

// prober records probe spans in a trace of their own.
type prober struct {
	tr   *tracer
	root *span
}

// probeTrace is the trace id probe spans share (op traces count up from 0);
// probeTrack is their track in the trace file, clear of the client indexes.
const (
	probeTrace = -1
	probeTrack = 99
)

// time runs f probeReps times under spans named name and returns the median
// seconds.
func (p *prober) time(name string, f func()) float64 {
	var s []float64
	for i := 0; i < probeReps; i++ {
		sp := p.root.child(name)
		f()
		sp.end()
		s = append(s, sp.dur().Seconds())
	}
	return median(s)
}

// probe runs the workload's kernel probes, stores the metrics that are not
// plain span medians in layer, and returns the spans. A probe that cannot run
// is a broken harness, not a failed op. epoch is the traced phase's, so the
// trace file shows the probes after the ops.
func (in *instance) probe(layer map[string]float64, epoch time.Time) ([]*span, error) {
	p := &prober{tr: newTracer(probeTrack, epoch)}
	p.root = p.tr.root("probes", probeTrace)
	var err error
	switch {
	case in.probeStmt != nil:
		err = in.probeOffload(p, layer)
	case in.stack != nil:
		err = in.probeSoftware(p, layer)
	}
	p.root.end()
	return p.tr.spans, err
}

// puPattern builds BenchmarkPUThroughput's patterns: 1, 3 and 7 groups make
// 2, 7 and 15 PU states.
func puPattern(groups int) string {
	if groups == 1 {
		return "token"
	}
	pat := ""
	for i := 0; i < groups; i++ {
		if i > 0 {
			pat += ".*"
		}
		pat += fmt.Sprintf("(t%c|u%c)", 'a'+i, 'a'+i)
	}
	return pat
}

// probeOffload probes the layers under the offload path: the functional
// engine and PU, the timing simulation, and the observability stamping.
func (in *instance) probeOffload(p *prober, layer map[string]float64) error {
	sys, s := in.stack.sys, in.probeStmt
	col := s.strings()
	lim := sys.Device.Deployment.Limits
	prog, err := token.CompilePattern(s.pattern, token.Options{})
	if err != nil {
		return err
	}
	vec, err := config.Encode(prog, lim)
	if err != nil {
		return err
	}
	result, err := bat.NewShorts(sys.Region, col.Count())
	if err == nil {
		err = result.SetLen(col.Count())
	}
	if err != nil {
		return err
	}
	defer result.Free()

	// engine.Execute on the statement's partitions, with a registry of its
	// own so the system's pu.cycles count stays the ops'.
	parts := partitions(sys.HAL.Engines(), vec, col, result)
	scratch := telemetry.NewRegistry()
	engines := make([]*engine.Engine, len(parts))
	for e := range parts {
		engines[e] = engine.New(sys.Device, e)
		engines[e].SetTelemetry(scratch)
	}
	queues := make([][]memmodel.Job, len(parts))
	p.time("engine.execute", func() {
		for e, part := range parts {
			st, xErr := engines[e].Execute(part)
			if xErr != nil {
				err = xErr
			}
			queues[e] = []memmodel.Job{engine.TimingJob(part, st)}
		}
	})
	if err != nil {
		return err
	}

	var grants int64
	simS := p.time("memmodel.simulate", func() {
		grants = memmodel.Simulate(*sys.HAL.Params(), queues).Grants
	})
	if grants > 0 {
		layer["memmodel.host_ns_per_grant"] = simS * toNS / float64(grants)
	}

	input := []byte("John|Smith|44 Koblenzer Weg|60327|Frankfurt am Main padding..")
	for _, pp := range []struct {
		groups, states int
	}{{1, 2}, {3, 7}, {7, 15}} {
		prog, err := token.CompilePattern(puPattern(pp.groups), token.Options{})
		if err != nil {
			return err
		}
		if prog.NumStates() != pp.states {
			return fmt.Errorf("pu probe pattern has %d states, want %d", prog.NumStates(), pp.states)
		}
		u, err := pu.New(prog)
		if err != nil {
			return err
		}
		const rounds = 2_000
		sec := p.time(fmt.Sprintf("pu.match.s%d", pp.states), func() {
			for i := 0; i < rounds; i++ {
				u.Match(input)
			}
		})
		layer[fmt.Sprintf("pu.ns_per_byte.s%d", pp.states)] = sec * toNS / float64(rounds*len(input))
	}

	// Observability stamping, replayed on records captured from a real
	// result into instances of the probe's own.
	res, err := sys.Exec(context.Background(), col, s.pattern, token.Options{})
	if err != nil {
		return err
	}
	res.Matches.Free()
	const rounds = 200
	if events := sys.Obs.Log.Window(1); len(events) == 1 {
		o := obs.New(obs.Options{})
		sec := p.time("obs.observe", func() {
			for i := 0; i < rounds; i++ {
				o.ObserveQuery(events[0])
			}
		})
		layer["obs.observe_us"] = sec * toUS / rounds
	}
	if res.Decision != nil {
		a := explain.NewAuditor(explain.Options{})
		sec := p.time("explain.observe", func() {
			for i := 0; i < rounds; i++ {
				a.Observe(res.Decision)
			}
		})
		layer["explain.observe_us"] = sec * toUS / rounds
	}
	if events := sys.Rec.Window(); len(events) > 0 {
		ev := events[len(events)-1]
		ev.WallNS = 0 // let Record stamp the wall clock, as the HAL's calls do
		r := flightrec.New(0)
		sec := p.time("flightrec.record", func() {
			for i := 0; i < rounds; i++ {
				r.Record(ev)
			}
		})
		layer["flightrec.record_ns"] = sec * toNS / rounds
	}
	return nil
}

// probeSoftware probes the software matchers on a sample of the generated
// rows: the three regex engines, LIKE, and the inverted index.
func (in *instance) probeSoftware(p *prober, layer map[string]float64) error {
	rows := make([][]byte, len(in.probeRows))
	for i, r := range in.probeRows {
		rows[i] = []byte(r)
	}
	n := float64(len(rows))
	var allocs []float64
	for _, q := range offloadQueries[1:4] {
		bt, err := softregex.NewBacktracker(q.pattern, false)
		if err != nil {
			return err
		}
		var steps uint64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sec := p.time("softregex.backtracker."+q.label, func() {
			steps = 0
			for _, r := range rows {
				_, st := bt.Match(r)
				steps += st
			}
		})
		runtime.ReadMemStats(&m1)
		layer["softregex.backtracker_ns_per_row."+q.label] = sec * toNS / n
		layer["softregex.steps_per_row."+q.label] = float64(steps) / n
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/(probeReps*n))
	}
	layer["softregex.allocs_per_row"] = median(allocs)

	th, err := softregex.NewThompson(workload.Q2, false)
	if err != nil {
		return err
	}
	layer["softregex.thompson_ns_per_row.q2"] = p.time("softregex.thompson.q2", func() {
		for _, r := range rows {
			th.Match(r)
		}
	}) * toNS / n
	dfa, err := softregex.NewDFA(workload.Q2, false)
	if err != nil {
		return err
	}
	layer["softregex.dfa_ns_per_row.q2"] = p.time("softregex.dfa.q2", func() {
		for _, r := range rows {
			if _, _, mErr := dfa.Match(r); mErr != nil {
				err = mErr
			}
		}
	}) * toNS / n
	if err != nil {
		return err
	}

	like, err := strmatch.CompileLike(workload.Q1Like, false)
	if err != nil {
		return err
	}
	layer["strmatch.like_ns_per_row"] = p.time("strmatch.like", func() {
		for _, r := range rows {
			like.Match(r)
		}
	}) * toNS / n

	var ix *invindex.Index
	p.time("invindex.rebuild", func() { ix = invindex.Build(in.probeRows, true) })
	p.time("invindex.search", func() {
		if _, _, sErr := ix.Search("Koblenzer & Strasse"); sErr != nil {
			err = sErr
		}
	})
	return err
}
