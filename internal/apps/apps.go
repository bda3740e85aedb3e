// Package apps implements the paper's eight benchmark applications against
// the DSM Proc API: barnes (SPLASH-2 Barnes-Hut, serial maketree), expl (a
// dense explicit PDE stencil), fft (3-D FFT with transposes), jacobi
// (stencil plus max-residual convergence test), shallow and swm (shallow
// water models at coarse and fine synchronization granularity), sor
// (nearest-neighbour relaxation), and tomcatv (SPEC mesh generation, APR
// transposed).
//
// All codes are SPMD, row-block partitioned ("owner computes"), synchronize
// only through barriers and barrier-borne reductions, and perform a full
// period of their phase structure per IterationBoundary, so their sharing
// patterns are invariant across iterations — the property the paper's
// protocols exploit. Barnes is the deliberate exception: its partition
// drifts every iteration, which excludes it from the overdrive protocols
// exactly as in the paper.
//
// Every app computes a partition-independent checksum through a ReduceXor
// barrier, so any run can be verified bit-for-bit against the uniprocessor
// baseline.
package apps

import (
	"context"
	"strings"

	"godsm/internal/core"
	"godsm/internal/cost"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/trace"
)

// App describes one benchmark application.
type App struct {
	// Name is the paper's name for the code.
	Name string
	// Description summarizes the kernel.
	Description string
	// SegmentBytes is the shared-segment size the body allocates.
	SegmentBytes int
	// Warm and Measure are the uninstrumented and measured iteration
	// counts. Warm must cover initialization, home migration and overdrive
	// learning (>= LearnIters+1).
	Warm, Measure int
	// Body is the SPMD program.
	Body func(p *core.Proc)
	// Dynamic marks applications whose sharing pattern changes between
	// iterations; the overdrive protocols (bar-s, bar-m) reject them, as
	// the paper excludes barnes from Figure 4. The adaptive protocol is
	// exempt: its per-page overdrive keeps trapping, so unpredicted
	// writes stay ordinary faults.
	Dynamic bool
	// BarriersPerIter is the app's phase count, for the applications
	// table's synchronization-granularity column.
	BarriersPerIter int
	// kv is the datastore workload's configuration (nil for the paper's
	// apps), for the rules that tie it to a cluster (see fits).
	kv *KVConfig
}

// RunOpts carries the run options that compose with an App's own
// configuration (segment size, body, dynamic-pattern checks). Callers that
// previously hand-built a core.Config to attach tracing — and silently
// dropped the app-level checks — should use RunWith instead.
type RunOpts struct {
	// Model is the virtual-time cost model; nil selects cost.Default().
	Model *cost.Model
	// Trace, when non-nil, records protocol events into the bounded log.
	Trace *trace.Log
	// Sinks receive every trace event (streaming exporters; internal/obs).
	Sinks []trace.Sink
	// Timeline attaches the per-epoch statistics history to the Report.
	Timeline bool
	// PageStats attaches per-page attribution to the Report.
	PageStats bool
	// Faults, when non-nil, arms deterministic network fault injection and
	// the core reliability layer (see netsim.FaultPlan).
	Faults *netsim.FaultPlan
	// Check attaches a consistency checker (internal/check's oracle): it
	// observes every store and barrier completion, and its Finish error
	// fails the run.
	Check core.Checker
	// Transport, when non-"", runs the cluster over the named real
	// transport backend ("mem", "udp" or "tcp"; see internal/transport's
	// registry) on the wall-clock scheduler instead of the virtual-time
	// simulator. Ignored for the sequential baseline, which has no remote
	// traffic.
	Transport string
	// Metrics, when non-nil, accumulates run counters and histograms into
	// the registry (see core.Config.Metrics). The registry outlives the
	// run, so a server can aggregate across many sessions.
	Metrics *metrics.Registry
	// Configure, when non-nil, runs last over the assembled core.Config,
	// an escape hatch for options RunOpts does not name.
	Configure func(*core.Config)
}

// Run executes the app under the given protocol and cluster size.
func (a *App) Run(procs int, proto core.ProtocolKind, model *cost.Model) (*core.Report, error) {
	return a.RunWith(procs, proto, RunOpts{Model: model})
}

// RunWith executes the app with full observability options.
func (a *App) RunWith(procs int, proto core.ProtocolKind, opts RunOpts) (*core.Report, error) {
	return a.RunWithContext(context.Background(), procs, proto, opts)
}

// RunWithContext is RunWith with cancellation: ctx aborts the run between
// simulation events (core.RunContext semantics), which is how a server
// cancels a session mid-flight.
func (a *App) RunWithContext(ctx context.Context, procs int, proto core.ProtocolKind, opts RunOpts) (*core.Report, error) {
	if err := a.fits(procs, proto); err != nil {
		return nil, err
	}
	cfg := core.Config{
		Procs:        procs,
		Protocol:     proto,
		SegmentBytes: a.SegmentBytes,
		Model:        opts.Model,
		Trace:        opts.Trace,
		Sinks:        opts.Sinks,
		Timeline:     opts.Timeline,
		PageStats:    opts.PageStats,
		Faults:       opts.Faults,
		Check:        opts.Check,
		Metrics:      opts.Metrics,
	}
	if proto != core.ProtoSeq {
		cfg.Transport = opts.Transport
	}
	if opts.Configure != nil {
		opts.Configure(&cfg)
	}
	return core.RunContext(ctx, cfg, a.Body)
}

// fits applies the app's own rules to a cluster: the overdrive protocols
// abort on a dynamic sharing pattern, and kv has KVConfig.fits.
func (a *App) fits(procs int, proto core.ProtocolKind) error {
	if a.Dynamic && (proto == core.ProtoBarS || proto == core.ProtoBarM) {
		return fieldErr("proto", "%v: %s has a dynamic sharing pattern; the run would abort (the paper excludes it)", proto, a.Name)
	}
	if a.kv != nil {
		return a.kv.fits(procs, proto)
	}
	return nil
}

// RunSeq executes the uniprocessor baseline (synchronization nulled out).
func (a *App) RunSeq(model *cost.Model) (*core.Report, error) {
	return a.Run(1, core.ProtoSeq, model)
}

// All returns the paper's eight applications at paper-like scale, in
// presentation order.
func All() []*App {
	return []*App{
		Barnes(BarnesDefault()),
		Expl(ExplDefault()),
		FFT(FFTDefault()),
		Jacobi(JacobiDefault()),
		Shallow(ShallowDefault()),
		SOR(SORDefault()),
		SWM(SWMDefault()),
		Tomcatv(TomcatvDefault()),
	}
}

// Small returns reduced-size variants of every app for fast tests.
func Small() []*App {
	return []*App{
		Barnes(BarnesSmall()),
		Expl(ExplSmall()),
		FFT(FFTSmall()),
		Jacobi(JacobiSmall()),
		Shallow(ShallowSmall()),
		SOR(SORSmall()),
		SWM(SWMSmall()),
		Tomcatv(TomcatvSmall()),
	}
}

// Names lists every application ByName resolves, in presentation
// order: the paper's eight plus the kv datastore workload (which stays
// out of All() — the paper's tables are fixed at eight apps).
func Names() []string {
	names := make([]string, 0, len(All())+1)
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return append(names, "kv")
}

// ByName finds a full-size app by name. Unknown names fail like
// transport.Lookup: the error carries the valid set.
func ByName(name string) (*App, error) {
	if name == "kv" {
		return KV(KVDefault())
	}
	return find(name, false)
}

// find looks up one of the paper's apps, at reduced size when small.
func find(name string, small bool) (*App, error) {
	list := All()
	if small {
		list = Small()
	}
	for _, a := range list {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fieldErr("app", "%q: unknown application (have %s)", name, strings.Join(Names(), ", "))
}

// --- shared helpers ---------------------------------------------------------

// blockRange splits n items into p contiguous blocks and returns block
// me's half-open range.
func blockRange(n, p, me int) (lo, hi int) {
	return n * me / p, n * (me + 1) / p
}

// chargeCells accounts compute time for k cells at the given per-cell cost.
func chargeCells(p *core.Proc, k int, perCell sim.Duration) {
	p.Charge(sim.Duration(k) * perCell)
}

// finishChecksum combines per-node partition checksums and publishes the
// result.
func finishChecksum(p *core.Proc, local uint64) {
	res := p.ReduceXor([]uint64{local})
	p.SetResult(res[0])
}

// lcg is a tiny deterministic generator for synthetic initial data; using
// our own keeps results independent of math/rand's algorithm across Go
// versions.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// float returns a uniform value in [0, 1).
func (l *lcg) float() float64 {
	return float64(l.next()>>11) / float64(1<<53)
}
