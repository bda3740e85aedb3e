package main

import (
	"fmt"
	"time"

	"godsm/internal/apps"
	"godsm/internal/check"
	"godsm/internal/core"
	"godsm/internal/kvload"
)

// probeSeqBaseline runs each cell's plain single-threaded baseline — the
// same problem with synchronisation nulled out — and sets the workload's
// simulation overhead factor against it.
var probeSeqBaseline = probe{name: "apps sequential baseline", run: func(e *probeEnv) error {
	share := e.budget / time.Duration(len(e.cells))
	var meds []float64
	for _, cs := range e.cells {
		var runErr error
		ns := e.sampleFor(share, 1, func() {
			if _, err := cs.app.RunSeq(nil); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return fmt.Errorf("%s: %w", cs.label, runErr)
		}
		meds = append(meds, median(ns)/1e6)
	}
	seq := geomean(meds)
	e.out.setNote("apps.seq_ms_geomean", seq, fmt.Sprintf("%d apps", len(meds)))
	if par := e.ref.cellMedians(); len(par) == len(meds) {
		e.out.set("apps.par_over_seq_x", geomean(par)/seq)
	}
	return nil
}}

// probeKVLoad times the traffic generator alone over KVDefault's 65 536
// keys: one op from a zipfian and from a uniform stream, and building the
// plan — the sampler's quantile table plus sixteen streams — which every
// node of every kv run does once.
var probeKVLoad = probe{name: "kvload generator", run: func(e *probeEnv) error {
	cfg := apps.KVDefault()
	plan := func(d kvload.Dist) ([]*kvload.Stream, error) {
		s, err := kvload.NewSampler(cfg.Keys, d)
		if err != nil {
			return nil, err
		}
		streams := make([]*kvload.Stream, cfg.Streams)
		for i := range streams {
			streams[i] = kvload.NewStream(s, cfg.Mix, cfg.Seed, i)
		}
		return streams, nil
	}
	const batch = 1024
	for _, c := range []struct {
		name string
		dist kvload.Dist
	}{
		{"kvload.next_zipf_ns", zipf099},
		{"kvload.next_uniform_ns", uniform},
	} {
		streams, err := plan(c.dist)
		if err != nil {
			return err
		}
		st := streams[0]
		e.out.set(c.name, median(e.sample(batch, func() {
			var k uint32
			for i := 0; i < batch; i++ {
				k ^= st.Next().Key
			}
			sinkU = uint64(k)
		})))
	}
	var planErr error
	ns := e.sample(1, func() {
		if _, err := plan(zipf099); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		return planErr
	}
	e.out.set("kvload.plan_ms", median(ns)/1e6)
	return nil
}}

// probeOracle runs small jacobi under bar-u with and without the
// consistency oracle attached. It guards the time CI spends under
// -check; no end-to-end metric depends on it.
var probeOracle = probe{name: "check oracle", run: func(e *probeEnv) error {
	app := apps.Jacobi(apps.JacobiSmall())
	timed := func(withOracle bool) (float64, error) {
		var runErr error
		ns := e.sampleFor(e.budget/2, 1, func() {
			var opts apps.RunOpts
			if withOracle {
				opts.Check = check.New()
			}
			if _, err := app.RunWithContext(e.ctx, 8, core.ProtoBarU, opts); err != nil {
				runErr = err
			}
		})
		return median(ns), runErr
	}
	plain, err := timed(false)
	if err != nil {
		return err
	}
	checked, err := timed(true)
	if err != nil {
		return err
	}
	e.out.set("check.oracle_overhead_x", checked/plain)
	return nil
}}
