// Package godsm is a software distributed-shared-memory (DSM) laboratory:
// a faithful Go reconstruction of the protocols, runtime and evaluation of
// Pete Keleher, "Update Protocols and Iterative Scientific Applications",
// IPPS 1998.
//
// The package re-exports the engine's public surface:
//
//   - Run executes an SPMD body on a simulated cluster under one of six
//     coherence protocols: the homeless multi-writer lazy-release-
//     consistency protocols LmwI and LmwU, the home-based barrier
//     protocols BarI and BarU, and the "overdrive" protocols BarS and
//     BarM that eliminate SIGSEGV write trapping and mprotect calls from
//     the steady state.
//   - Proc is the application-facing handle: shared typed arrays with
//     software page protection, barriers, and barrier-borne reductions.
//   - Report carries the measured statistics: Table-1 style counters and
//     the sigio/wait/os/app execution-time breakdown.
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's 8-node IBM SP-2 (see internal/sim and internal/cost), so runs
// are bit-for-bit reproducible and every protocol action is charged its
// measured cost. The eight benchmark applications live in internal/apps;
// the experiment harness that regenerates the paper's tables and figures
// lives in internal/repro and is driven by cmd/repro.
//
// A minimal program, using the functional-options entry point:
//
//	report, err := godsm.RunWith(func(p *godsm.Proc) {
//	    a := p.AllocF64(1024)
//	    if p.ID() == 0 {
//	        for i := 0; i < a.Len(); i++ {
//	            a.Set(i, float64(i))
//	        }
//	    }
//	    p.Barrier()
//	    // ... iterate, read halos, write your partition ...
//	}, godsm.WithProcs(4), godsm.WithProtocol(godsm.BarU), godsm.WithSegmentBytes(1<<20))
//
// RunWith (options.go) is the preferred surface; Run and RunContext with a
// literal Config remain supported as the secondary, fully-explicit path
// for callers that build configurations programmatically.
package godsm

import (
	"context"

	"godsm/internal/core"
	"godsm/internal/cost"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/transport"
)

// Core engine types.
type (
	// Config describes one DSM run.
	Config = core.Config
	// Proc is the application-facing handle to one DSM node.
	Proc = core.Proc
	// Report is the outcome of a run.
	Report = core.Report
	// ProtocolKind selects a coherence protocol.
	ProtocolKind = core.ProtocolKind
	// F64Array is a shared float64 array with software page protection.
	F64Array = core.F64Array
	// F64Matrix is a dense row-major shared matrix.
	F64Matrix = core.F64Matrix
	// I64Array is a shared int64 array.
	I64Array = core.I64Array
	// RedOp is a reduction operator carried on barriers.
	RedOp = core.RedOp
	// CostModel is the virtual-time cost model of the simulated cluster.
	CostModel = cost.Model
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
	// Time is a virtual-time instant.
	Time = sim.Time
	// FaultPlan is a deterministic network fault-injection schedule
	// (Config.Faults / WithFaults).
	FaultPlan = netsim.FaultPlan
	// FaultRule is one drop/duplicate/reorder/delay rule of a FaultPlan;
	// the first matching rule wins.
	FaultRule = netsim.FaultRule
	// StragglerRule slows one node's compute by a factor over an epoch
	// window.
	StragglerRule = netsim.StragglerRule
	// Checker observes every store and barrier completion of a run
	// (Config.Check); internal/check's consistency oracle implements it,
	// and WithCheck attaches one.
	Checker = core.Checker
	// MetricsRegistry accumulates counters and histograms across runs
	// (Config.Metrics / WithMetrics) and renders them in Prometheus text
	// format via WritePrometheus. Create one with NewMetricsRegistry.
	MetricsRegistry = metrics.Registry
)

// NewMetricsRegistry creates an empty metrics registry to attach with
// WithMetrics. One registry can serve many runs — counters accumulate —
// and is safe for concurrent use.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// AnyNode is the wildcard for FaultRule.From/To and StragglerRule.Node.
// Note the zero value means node 0, not the wildcard.
const AnyNode = netsim.AnyNode

// The six protocols of the paper, plus the uniprocessor baseline.
const (
	// Seq is the sequential baseline with synchronization nulled out.
	Seq = core.ProtoSeq
	// LmwI is homeless invalidate-based multi-writer LRC (TreadMarks/CVM).
	LmwI = core.ProtoLmwI
	// LmwU is LmwI plus copyset-directed update flushes.
	LmwU = core.ProtoLmwU
	// BarI is the home-based barrier protocol with invalidation.
	BarI = core.ProtoBarI
	// BarU is BarI plus copyset-directed updates waited for in-barrier.
	BarU = core.ProtoBarU
	// BarS is BarU with overdrive write prediction replacing SIGSEGV.
	BarS = core.ProtoBarS
	// BarM is BarS with steady-state mprotect eliminated.
	BarM = core.ProtoBarM
)

// Reduction operators.
const (
	RedSum = core.RedSum
	RedMax = core.RedMax
	RedMin = core.RedMin
	RedXor = core.RedXor
)

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Run executes body on cfg.Procs simulated nodes under cfg.Protocol. The
// body runs once per node (SPMD); all nodes must perform identical Alloc
// and Barrier sequences. Most callers should prefer RunWith.
func Run(cfg Config, body func(*Proc)) (*Report, error) {
	return core.Run(cfg, body)
}

// RunContext is Run with cancellation: when ctx is cancelled mid-run the
// simulation stops at its next event and ctx's error is returned. A
// cancelled run unwinds its simulated processes before returning, so a
// long-lived process can abort runs freely.
func RunContext(ctx context.Context, cfg Config, body func(*Proc)) (*Report, error) {
	return core.RunContext(ctx, cfg, body)
}

// ConformancePlan builds the seeded fault schedule the conformance
// harness runs proto under: moderate drop, duplication and reordering on
// every packet, with the overdrive protocols' update flushes shielded
// from drops (they have no invalidation fallback for a lost flush).
func ConformancePlan(proto ProtocolKind, seed int64) *FaultPlan {
	return core.ConformancePlan(proto, seed)
}

// Protocols lists the paper's six protocols in presentation order.
func Protocols() []ProtocolKind { return core.Protocols() }

// TransportNames lists every registered transport backend name, sorted —
// the values WithTransport (and Config.Transport) accepts. "sim" is the
// virtual backend: the discrete-event kernel itself.
func TransportNames() []string { return transport.Names() }

// ParseProtocol maps a protocol name ("bar-u", "lmw-i", ...) to its kind.
func ParseProtocol(s string) (ProtocolKind, error) { return core.ParseProtocol(s) }

// DefaultCostModel returns the model calibrated to the paper's SP-2/AIX
// microbenchmarks (160 µs RPC, 939 µs remote page fault, 128 µs segv,
// 12 µs mprotect, 40 MB/s links, 8 KB pages).
func DefaultCostModel() *CostModel { return cost.Default() }

// IdealCostModel returns a model with a perfectly scalable OS (no
// VM-stress degradation), for ablations.
func IdealCostModel() *CostModel { return cost.Ideal() }
