// Package core implements the DSM runtime the paper evaluates: a simulated
// CVM-like engine hosting six coherence protocols — the homeless
// multi-writer lazy-release-consistency protocols lmw-i and lmw-u, the
// home-based barrier protocols bar-i and bar-u, and the "overdrive"
// protocols bar-s and bar-m that strip SIGSEGV write trapping and mprotect
// calls out of the steady state.
//
// Applications are SPMD bodies run once per node against the Proc API:
// typed shared arrays with software page protection, barrier-only
// synchronization, and explicit reductions. The engine charges every
// protocol action its calibrated virtual-time cost (see internal/cost) and
// produces the statistics the paper reports.
package core

import (
	"fmt"
	"strings"

	"godsm/internal/cost"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/trace"
	"godsm/internal/transport"
	"godsm/internal/vm"
)

// ProtocolKind selects a coherence protocol.
type ProtocolKind int

const (
	// ProtoSeq is the uniprocessor baseline: no protocol actions, no
	// synchronization cost; elapsed time is pure application compute.
	// Speedups in the paper are computed against exactly this
	// ("synchronization macros nulled out").
	ProtoSeq ProtocolKind = iota
	// ProtoLmwI is homeless invalidate-based multi-writer LRC.
	ProtoLmwI
	// ProtoLmwU is lmw-i plus copyset-directed update flushes.
	ProtoLmwU
	// ProtoBarI is the home-based barrier protocol with invalidation.
	ProtoBarI
	// ProtoBarU is bar-i plus copyset-directed updates with in-barrier
	// update waiting.
	ProtoBarU
	// ProtoBarS is bar-u with overdrive write-history prediction replacing
	// SIGSEGV write trapping.
	ProtoBarS
	// ProtoBarM is bar-s with all steady-state mprotect calls eliminated.
	ProtoBarM
	// ProtoBarA ("adaptive") is bar-u with runtime per-page protocol
	// selection: zero-message interest probes decide per page between
	// update (stay in the copyset) and invalidate (unsubscribe), and a
	// graceful per-page overdrive write-enables predicted pages while
	// unpredicted writes fall back to ordinary trapping instead of
	// aborting — so, unlike bar-s/bar-m, it is safe on dynamic sharing
	// patterns.
	ProtoBarA
)

var protoNames = map[ProtocolKind]string{
	ProtoSeq:  "seq",
	ProtoLmwI: "lmw-i",
	ProtoLmwU: "lmw-u",
	ProtoBarI: "bar-i",
	ProtoBarU: "bar-u",
	ProtoBarS: "bar-s",
	ProtoBarM: "bar-m",
	ProtoBarA: "adaptive",
}

func (k ProtocolKind) String() string {
	if s, ok := protoNames[k]; ok {
		return s
	}
	return fmt.Sprintf("protocol(%d)", int(k))
}

// ParseProtocol maps a protocol name ("lmw-i", "bar-u", ...) to its kind.
func ParseProtocol(s string) (ProtocolKind, error) {
	for k, n := range protoNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol %q", s)
}

// Protocols lists the six paper protocols in presentation order. The
// adaptive extension (ProtoBarA) is deliberately not included: tables
// that reproduce the paper keep the paper's columns.
func Protocols() []ProtocolKind {
	return []ProtocolKind{ProtoLmwI, ProtoLmwU, ProtoBarI, ProtoBarU, ProtoBarS, ProtoBarM}
}

// Config describes one DSM run.
type Config struct {
	// Procs is the number of DSM nodes (the paper uses 8).
	Procs int
	// Protocol selects the coherence protocol.
	Protocol ProtocolKind
	// SegmentBytes sizes the shared segment (rounded up to whole pages).
	SegmentBytes int
	// Model is the virtual-time cost model; nil selects cost.Default().
	Model *cost.Model
	// LearnIters is the number of initial application iterations used as
	// the learning window: home migration happens at the first iteration
	// boundary and overdrive (bar-s/bar-m) engages at the second. The
	// default of 2 matches the paper ("migrate pages before the second
	// iteration begins"; overdrive "after gathering information for some
	// period of time").
	LearnIters int
	// Faults, when non-nil, arms deterministic network fault injection
	// (drop/duplicate/delay by kind, node pair or epoch window, plus
	// straggler slowdowns) and with it the reliability layer: tracked,
	// retransmitted requests and idempotent, replay-suppressing services.
	// Nil (the default) leaves the interconnect perfectly reliable and
	// every reliability hook a no-op.
	Faults *netsim.FaultPlan
	// UpdateWaitTimeout bounds how long a bar-u consumer waits inside the
	// barrier for update flushes when the network is lossy. Zero selects
	// 20ms — generous relative to any wire time, so it only fires for
	// genuinely lost flushes.
	UpdateWaitTimeout sim.Duration
	// RetryTimeout is the reliability layer's base retransmission timeout;
	// it doubles per retry (capped at 128x). Zero selects 5ms.
	RetryTimeout sim.Duration
	// CheckOverdrive enables the (zero-virtual-cost) divergence checker
	// that verifies bar-m's unsound assumption: every steady-state write
	// hits a predicted page. Violations abort the run, mirroring the
	// prototype's "complain loudly and exit".
	CheckOverdrive bool
	// CheckDisjoint verifies that concurrent diffs of the same page never
	// overlap (i.e. the program is data-race free). Debug aid.
	CheckDisjoint bool
	// LmwGCBarriers, when positive, runs the homeless protocols' explicit
	// garbage collection every that-many barriers: all pending pages are
	// validated, then diffs and interval logs covered by the sweep are
	// dropped one barrier later. Zero (the default) never collects —
	// "consistency information ... can not be discarded without explicit
	// garbage collection", and CVM-era systems ran it rarely.
	LmwGCBarriers int
	// Trace, when non-nil, records protocol events (faults, protection
	// changes, diffs, barriers, lock transfers, migrations) with virtual
	// timestamps. See internal/trace and cmd/dsmrun's -trace flag.
	Trace *trace.Log
	// Sinks receive every trace event alongside Trace: attach streaming
	// exporters here (internal/obs's JSONL and Chrome trace_event sinks)
	// to observe a run without bounding it in memory. The engine never
	// closes sinks; flush them after Run returns.
	Sinks []trace.Sink
	// Timeline, when set, snapshots every node's counters and time
	// breakdown at each barrier completion and attaches the per-epoch
	// history to the Report (Report.Timeline). The timeline covers the
	// whole run, not just the measurement window, so migration and
	// overdrive transitions are visible.
	Timeline bool
	// PageStats, when set, attributes faults, diffs, fetches, update
	// pushes and migrations to individual pages (Report.PageStats). Off by
	// default; when off the per-page path costs nothing and allocates
	// nothing.
	PageStats bool
	// DisableMigration turns off the bar protocols' runtime home
	// migration, leaving the static block distribution in place. Used by
	// the home-assignment ablation to quantify what §2.2.1's runtime
	// assignment buys.
	DisableMigration bool
	// Check, when non-nil, receives every store and every barrier
	// completion during the run, and its Finish error fails the run.
	// internal/check's consistency oracle implements it; core sees only
	// this interface so the checker stays out of the engine's import
	// graph. Nil (the default) costs one pointer test per store and
	// nothing else — the same zero-cost-when-off contract as PageStats.
	Check Checker
	// Transport selects how protocol messages travel, by
	// internal/transport registry name. "" or "sim" (the default) keeps
	// the discrete-event simulation with its virtual clock. Any real
	// backend ("mem", "udp", "tcp") runs the cluster for real: every
	// node's processes execute concurrently against the wall clock and
	// every remote message is encoded by internal/wire and carried by the
	// named backend. Application results are identical by construction
	// (see internal/check); timings and message interleavings are not, so
	// Elapsed and the breakdowns report wall time, not the calibrated
	// SP-2 model.
	Transport string
	// Metrics, when non-nil, accumulates the run's protocol activity into
	// the registry: per-protocol message/retransmit/stale-refetch counters
	// from core, fault verdicts and the injected-delay distribution from
	// netsim, and frame/byte counts from the transport backend. The
	// registry outlives the run — cmd/dsmd serves one registry across
	// every session it hosts — so values only ever accumulate. Nil (the
	// default) costs nothing: no handles are resolved and the hot paths
	// pay a single nil test, the same contract as PageStats.
	Metrics *metrics.Registry
	// NetHook, when non-nil, receives the cluster's network right after
	// fault injection is armed and before any node runs. It is the
	// control-plane escape hatch behind dsmd's live fault toggle: the
	// handle stays valid for the whole run, and netsim's mutating entry
	// points (SwapFaults) lock internally, so a server may call them from
	// outside the simulation. The hook itself runs on the launching
	// goroutine; it must not block.
	NetHook func(*netsim.Net)
	// EncodeInFlight, in sim mode, round-trips every remote packet
	// through the wire codec so the receiver gets an independent decoded
	// copy instead of the sender's pointers. Virtual time and results are
	// unchanged unless a sender aliases a payload it later mutates — the
	// hazard a real transport would turn into corruption. Ignored when
	// Transport is set (real transports always encode).
	EncodeInFlight bool
	// BarrierFanout, when positive, routes barrier releases down a k-ary
	// relay tree instead of the manager's historical flat fan-out: node 0
	// sends each of its k direct children (heap layout: children of x are
	// k*x+1 .. k*x+k) one bundled message carrying its whole subtree's
	// releases, and every relay delivers its own release locally before
	// forwarding per-child sub-bundles. Release latency drops from
	// Procs*SendCPU serial sends to log_k(Procs) relay hops, which is what
	// lets barrier-bound runs scale past a handful of nodes. 0 (the
	// default) keeps the flat fan-out and the paper's 8-node cost
	// accounting. Under a crash plan the manager always uses the flat
	// fan-out: releases go only to live arrivers, which the
	// membership-aware path handles.
	BarrierFanout int
}

// Checker observes a run for the consistency oracle (internal/check). The
// engine invokes it at zero virtual cost: a checker is instrumentation,
// not a protocol participant, so it must not touch simulated state.
type Checker interface {
	// Write observes one 8-byte store by node: the raw bits now at byte
	// offset off of the shared segment. Called on the typed accessors'
	// store path, after protection is resolved.
	Write(node, off int, bits uint64)
	// Epoch observes one barrier completion on node, after the protocol's
	// post-barrier phase; as is the node's address space, to be read only.
	Epoch(node int, as *vm.AddressSpace)
	// Stale observes bar-m's overdrive declining to invalidate a readable
	// page on node (a StaleSkip): the copy may legally go stale, and the
	// oracle must stop holding that page to the current image.
	Stale(node int, pg vm.PageID)
	// Finish runs after the simulation completes; a non-nil error fails
	// the run with it.
	Finish() error
}

// A ConfigError is a Config that Validate rejects. Field names the
// offending field as a Go path from Config ("Procs", "Transport",
// "Faults.Rules[0].Drop", "Faults.Crashes"); Msg says what is wrong with
// it, starting from the offending value.
type ConfigError struct {
	Field, Msg string
}

func (e *ConfigError) Error() string { return "core: " + e.Field + " " + e.Msg }

func invalid(field, format string, args ...any) error {
	return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate reports the first rule c breaks, as a *ConfigError, without
// running anything; Run applies the same rules before it starts. It
// normalizes Transport: a virtual backend's name ("sim") becomes "", the
// simulator.
func (c *Config) Validate() error {
	if c.Procs < 1 {
		return invalid("Procs", "%d: cluster needs at least 1 node", c.Procs)
	}
	if c.Procs > MaxNodes {
		return invalid("Procs", "%d: exceeds the %d-node copyset bound", c.Procs, MaxNodes)
	}
	if c.SegmentBytes <= 0 {
		return invalid("SegmentBytes", "%d: the shared segment needs at least one byte", c.SegmentBytes)
	}
	if c.Transport != "" {
		e, ok := transport.Lookup(c.Transport)
		if !ok {
			return invalid("Transport", "%q: unknown backend (have %s)",
				c.Transport, strings.Join(transport.Names(), ", "))
		}
		if e.Virtual {
			// "sim" (and any other virtual backend) is the DES kernel
			// itself; normalize so the engine takes the simulated path.
			c.Transport = ""
		}
	}
	if c.Transport != "" && c.Protocol == ProtoSeq {
		return invalid("Transport", "%s needs a parallel protocol; seq has no remote traffic", c.Transport)
	}
	if c.BarrierFanout < 0 {
		return invalid("BarrierFanout", "%d: want >= 0", c.BarrierFanout)
	}
	if c.BarrierFanout != 0 && c.Transport != "" {
		return invalid("BarrierFanout", "%d requires the simulated transport (got %s)", c.BarrierFanout, c.Transport)
	}
	if err := validateFaults(c); err != nil {
		return err
	}
	return validateCrashes(c)
}

// validateFaults rejects fault rules the injector would clamp or ignore,
// so a plan never measures something other than what it asks for.
func validateFaults(c *Config) error {
	if c.Faults == nil {
		return nil
	}
	for i, r := range c.Faults.Rules {
		for _, p := range []struct {
			name string
			val  float64
		}{{"Drop", r.Drop}, {"Dup", r.Dup}, {"Reorder", r.Reorder}} {
			if !(p.val >= 0 && p.val <= 1) {
				return invalid(fmt.Sprintf("Faults.Rules[%d].%s", i, p.name), "%g: must be a probability in [0, 1]", p.val)
			}
		}
		if r.Delay < 0 {
			return invalid(fmt.Sprintf("Faults.Rules[%d].Delay", i), "%dns: extra latency cannot be negative", r.Delay)
		}
	}
	for _, s := range c.Faults.Stragglers {
		switch {
		case c.Transport != "":
			// Stragglers multiply modeled compute time, which only exists
			// under the virtual clock.
			return invalid("Faults.Stragglers", "works only under the sim clock; transport %s measures wall time", c.Transport)
		case s.Node != netsim.AnyNode && (s.Node < 0 || s.Node >= c.Procs):
			return invalid("Faults.Stragglers", "node %d: cluster has nodes 0..%d (or %d for all)", s.Node, c.Procs-1, netsim.AnyNode)
		case !(s.Factor > 1):
			return invalid("Faults.Stragglers", "node %d factor %g: must exceed 1 (it multiplies compute time)", s.Node, s.Factor)
		case s.FromEpoch < 0:
			return invalid("Faults.Stragglers", "node %d fromEpoch %d: epochs start at 0", s.Node, s.FromEpoch)
		case s.ToEpoch != 0 && s.ToEpoch < s.FromEpoch:
			return invalid("Faults.Stragglers", "node %d window [%d, %d] is empty: toEpoch must be 0 (open) or at least fromEpoch",
				s.Node, s.FromEpoch, s.ToEpoch)
		}
	}
	return nil
}

func (c *Config) fill() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Model == nil {
		c.Model = cost.Default()
	}
	if c.LearnIters == 0 {
		c.LearnIters = 2
	}
	if c.UpdateWaitTimeout == 0 {
		c.UpdateWaitTimeout = 20 * sim.Millisecond
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 5 * sim.Millisecond
	}
	return nil
}

// ConformancePlan builds the seeded fault schedule the conformance harness
// (internal/check) runs proto under: moderate drop, duplication and
// reordering on every packet. For the overdrive protocols (adaptive
// included) the update flushes are shielded from drops (duplication and
// reordering still apply): they write-enable predicted pages without refetching,
// so unlike every other protocol they have no invalidation fallback for a
// lost flush — dropping one would produce a genuine stale read, not a
// conformance bug. The first matching fault rule wins, so the shield rule
// precedes the catch-all.
func ConformancePlan(proto ProtocolKind, seed int64) *netsim.FaultPlan {
	plan := &netsim.FaultPlan{Seed: seed}
	if proto == ProtoBarS || proto == ProtoBarM || proto == ProtoBarA {
		plan.Rules = append(plan.Rules, netsim.FaultRule{
			Kinds:   []int{mkUpdateFlush},
			From:    netsim.AnyNode,
			To:      netsim.AnyNode,
			Dup:     0.05,
			Reorder: 0.2,
			Delay:   200 * sim.Microsecond,
		})
	}
	plan.Rules = append(plan.Rules, netsim.FaultRule{
		From:    netsim.AnyNode,
		To:      netsim.AnyNode,
		Drop:    0.05,
		Dup:     0.05,
		Reorder: 0.2,
		Delay:   200 * sim.Microsecond,
	})
	return plan
}
