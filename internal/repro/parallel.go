package repro

import (
	"context"
	"fmt"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/cost"
	"godsm/internal/netsim"
	"godsm/internal/sweep"
)

// Every simulation an experiment needs is described by a runJob: a cache
// key naming the run's full configuration plus a closure that performs it.
// The experiments pull reports through runCached, and Prefetch enumerates
// the same jobs to warm the cache from parallel workers — so a parallel
// sweep renders byte-identical output: each run is individually
// deterministic, the cache is keyed, and rendering stays serial.

// runJob is one cacheable simulation run.
type runJob struct {
	key   string // app/protocol/procs plus any variant suffix
	app   string
	proto string
	procs int
	run   func() (*core.Report, error)
}

// runCached returns the cached report for j, running it on a miss.
func (r *Runner) runCached(j runJob) (*core.Report, error) {
	r.mu.Lock()
	if rep, ok := r.cache[j.key]; ok {
		r.mu.Unlock()
		return rep, nil
	}
	r.mu.Unlock()
	rep, err := j.run()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache[j.key] = rep
	r.mu.Unlock()
	return rep, nil
}

// appProtoJob is the standard run: app under proto at procs, the Runner's
// cost model.
func (r *Runner) appProtoJob(a *apps.App, proto core.ProtocolKind, procs int) runJob {
	return runJob{
		key:   fmt.Sprintf("%s/%v/%d", a.Name, proto, procs),
		app:   a.Name,
		proto: proto.String(),
		procs: procs,
		run: func() (*core.Report, error) {
			var rep *core.Report
			var err error
			if proto == core.ProtoSeq {
				rep, err = a.RunSeq(r.Model)
			} else {
				rep, err = a.Run(procs, proto, r.Model)
			}
			if err != nil {
				return nil, fmt.Errorf("repro: %s under %v at %d procs: %w", a.Name, proto, procs, err)
			}
			return rep, nil
		},
	}
}

// stressJob runs a under proto with the §4 OS-stress coefficient replacing
// the default model's (coefficient 0 selects the idealized OS).
func (r *Runner) stressJob(a *apps.App, proto core.ProtocolKind, coeff float64) runJob {
	j := r.appProtoJob(a, proto, r.Procs)
	j.key = fmt.Sprintf("%s/stress=%g", j.key, coeff)
	j.run = func() (*core.Report, error) {
		m := cost.Default()
		m.AppStressCoeff = coeff
		if coeff == 0 {
			m = cost.Ideal()
		}
		if proto == core.ProtoSeq {
			return a.RunSeq(m)
		}
		return a.Run(r.Procs, proto, m)
	}
	return j
}

// pageSizeJob runs a under proto with an explicit protection granularity.
func (r *Runner) pageSizeJob(a *apps.App, proto core.ProtocolKind, ps int) runJob {
	j := r.appProtoJob(a, proto, r.Procs)
	j.key = fmt.Sprintf("%s/ps=%d", j.key, ps)
	j.run = func() (*core.Report, error) {
		m := cost.Default()
		m.PageSize = ps
		if proto == core.ProtoSeq {
			return a.RunSeq(m)
		}
		return a.Run(r.Procs, proto, m)
	}
	return j
}

// staticHomeJob runs a under bar-u with runtime home migration disabled.
func (r *Runner) staticHomeJob(a *apps.App) runJob {
	j := r.appProtoJob(a, core.ProtoBarU, r.Procs)
	j.key += "/static-home"
	j.run = func() (*core.Report, error) {
		m := r.Model
		if m == nil {
			m = cost.Default()
		}
		return core.Run(core.Config{
			Procs:            r.Procs,
			Protocol:         core.ProtoBarU,
			SegmentBytes:     a.SegmentBytes,
			Model:            m,
			DisableMigration: true,
		}, a.Body)
	}
	return j
}

// lossJob runs a under bar-u with a uniform packet-drop probability.
func (r *Runner) lossJob(a *apps.App, rate float64) runJob {
	j := r.appProtoJob(a, core.ProtoBarU, r.Procs)
	j.key = fmt.Sprintf("%s/loss=%g", j.key, rate)
	j.run = func() (*core.Report, error) {
		var plan *netsim.FaultPlan
		if rate > 0 {
			plan = &netsim.FaultPlan{
				Seed: lossSweepSeed,
				Rules: []netsim.FaultRule{
					{From: netsim.AnyNode, To: netsim.AnyNode, Drop: rate},
				},
			}
		}
		rep, err := a.RunWith(r.Procs, core.ProtoBarU, apps.RunOpts{Model: r.Model, Faults: plan})
		if err != nil {
			return nil, fmt.Errorf("repro: loss sweep at rate %g: %w", rate, err)
		}
		return rep, nil
	}
	return j
}

// appByName returns the named app from the Runner's set.
func (r *Runner) appByName(name string) (*apps.App, error) {
	for _, a := range r.apps {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("repro: %s not in app set", name)
}

// staticApps returns the apps with static sharing patterns.
func (r *Runner) staticApps() []*apps.App {
	var static []*apps.App
	for _, a := range r.apps {
		if !a.Dynamic {
			static = append(static, a)
		}
	}
	return static
}

// jobsFor enumerates every simulation the named experiment consults, in
// presentation order. Unknown names yield nothing (the render path reports
// them).
func (r *Runner) jobsFor(experiment string) []runJob {
	var jobs []runJob
	add := func(j runJob) { jobs = append(jobs, j) }
	switch experiment {
	case "apps":
		for _, a := range r.apps {
			proto := core.ProtoBarU
			if a.Dynamic {
				proto = core.ProtoBarI
			}
			add(r.appProtoJob(a, proto, r.Procs))
		}
	case "table1":
		for _, a := range r.apps {
			for _, p := range table1Protocols {
				add(r.appProtoJob(a, p, r.Procs))
			}
		}
	case "fig2":
		for _, a := range r.apps {
			add(r.appProtoJob(a, core.ProtoSeq, 1))
			for _, p := range table1Protocols {
				add(r.appProtoJob(a, p, r.Procs))
			}
		}
	case "fig3":
		for _, a := range r.apps {
			add(r.appProtoJob(a, core.ProtoBarU, r.Procs))
		}
	case "adaptive":
		for _, a := range r.apps {
			add(r.appProtoJob(a, core.ProtoBarA, r.Procs))
			for _, p := range adaptiveStatics(a) {
				add(r.appProtoJob(a, p, r.Procs))
			}
		}
	case "fig4", "summary":
		for _, a := range r.staticApps() {
			add(r.appProtoJob(a, core.ProtoSeq, 1))
			for _, p := range figure4Protocols {
				add(r.appProtoJob(a, p, r.Procs))
			}
		}
	case "ablation-stress":
		if swm, err := r.appByName("swm"); err == nil {
			for _, coeff := range stressCoeffs {
				add(r.stressJob(swm, core.ProtoSeq, coeff))
				add(r.stressJob(swm, core.ProtoBarU, coeff))
				add(r.stressJob(swm, core.ProtoBarM, coeff))
			}
		}
	case "ablation-scale":
		for _, a := range r.apps {
			add(r.appProtoJob(a, core.ProtoSeq, 1))
			for _, procs := range scaleProcs {
				add(r.appProtoJob(a, core.ProtoBarU, procs))
			}
		}
	case "ablation-home":
		for _, a := range r.staticApps() {
			add(r.appProtoJob(a, core.ProtoSeq, 1))
			add(r.appProtoJob(a, core.ProtoBarU, r.Procs))
			add(r.staticHomeJob(a))
		}
	case "ablation-pagesize":
		for _, a := range r.staticApps() {
			for _, ps := range ablationPageSizes {
				add(r.pageSizeJob(a, core.ProtoSeq, ps))
				add(r.pageSizeJob(a, core.ProtoBarU, ps))
			}
		}
	case "chaos-loss":
		if jacobi, err := r.appByName("jacobi"); err == nil {
			for _, rate := range lossSweepRates {
				add(r.lossJob(jacobi, rate))
			}
		}
	case "scaling":
		for _, name := range scalingApps {
			for _, procs := range r.scalingProcs() {
				for _, p := range scalingProtocols {
					add(r.scalingJob(name, procs, p))
				}
			}
		}
	case "datastore":
		for _, s := range datastoreSkews {
			for _, w := range datastoreWriteFracs {
				add(r.datastoreJob(s, w, core.ProtoSeq, false))
				for _, p := range datastoreProtocols {
					add(r.datastoreJob(s, w, p, false))
				}
				add(r.datastoreJob(s, w, core.ProtoBarU, true))
			}
		}
	case "recovery":
		for _, name := range recoveryApps {
			if a, err := r.appByName(name); err == nil {
				for _, proto := range core.Protocols() {
					add(r.appProtoJob(a, proto, r.Procs))
					for _, epoch := range recoveryEpochs {
						add(r.crashJob(a, proto, epoch))
					}
				}
			}
		}
	}
	return jobs
}

// Prefetch runs every simulation the named experiments (all of them when
// the list is empty) will consult, fanning the runs across the Runner's
// Parallel workers and warming the report cache. Rendering afterwards is
// pure cache reads, so a prefetched sweep emits bytes identical to a
// serial one.
func (r *Runner) Prefetch(experiments ...string) error {
	return r.PrefetchContext(context.Background(), experiments...)
}

// PrefetchContext is Prefetch with cancellation: once ctx is cancelled
// (SIGINT mid-sweep) no new runs start and the cancellation is returned.
func (r *Runner) PrefetchContext(ctx context.Context, experiments ...string) error {
	r.init()
	if len(experiments) == 0 {
		experiments = ExportExperiments()
	}
	var jobs []runJob
	seen := make(map[string]bool)
	for _, exp := range experiments {
		for _, j := range r.jobsFor(exp) {
			if seen[j.key] {
				continue
			}
			seen[j.key] = true
			r.mu.Lock()
			_, cached := r.cache[j.key]
			r.mu.Unlock()
			if !cached {
				jobs = append(jobs, j)
			}
		}
	}
	return sweep.EachContext(ctx, r.Parallel, len(jobs), func(i int) error {
		_, err := r.runCached(jobs[i])
		return err
	})
}
