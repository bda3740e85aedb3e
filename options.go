package godsm

import (
	"context"

	"godsm/internal/check"
)

// An Option configures a run built by RunWith. Options are applied in
// order over the defaults (8 nodes, BarU, a 1 MiB segment), so later
// options win; WithConfig is the escape hatch to any Config field an
// option does not name.
type Option func(*Config)

// WithProcs sets the cluster size (default 8, the paper's testbed).
func WithProcs(n int) Option {
	return func(c *Config) { c.Procs = n }
}

// WithProtocol selects the coherence protocol (default BarU, the paper's
// best general protocol). Seq forces Procs to 1 at Run time.
func WithProtocol(k ProtocolKind) Option {
	return func(c *Config) { c.Protocol = k }
}

// WithSegmentBytes sizes the shared segment (default 1 MiB; rounded up to
// whole pages).
func WithSegmentBytes(n int) Option {
	return func(c *Config) { c.SegmentBytes = n }
}

// WithModel replaces the virtual-time cost model (default: the paper's
// SP-2 calibration, DefaultCostModel).
func WithModel(m *CostModel) Option {
	return func(c *Config) { c.Model = m }
}

// WithFaults arms deterministic network fault injection and with it the
// reliability layer. Build plans by hand (FaultPlan, FaultRule, AnyNode)
// or use ConformancePlan.
func WithFaults(plan *FaultPlan) Option {
	return func(c *Config) { c.Faults = plan }
}

// WithTimeline attaches the per-epoch statistics history to the Report.
func WithTimeline() Option {
	return func(c *Config) { c.Timeline = true }
}

// WithPageStats attaches per-page fault/diff/fetch attribution to the
// Report.
func WithPageStats() Option {
	return func(c *Config) { c.PageStats = true }
}

// WithCheck attaches a fresh shadow-memory consistency oracle
// (internal/check) to the run: every store and every barrier completion
// is observed, and any LRC violation — a stale readable page, a
// write-write race with differing values — fails the run with a localized
// error. Costs real time and memory proportional to the store count; off
// by default, and with no checker attached the store hot path pays one
// nil test and zero allocations.
func WithCheck() Option {
	return func(c *Config) { c.Check = check.New() }
}

// WithChecker attaches a caller-supplied Checker instead of the built-in
// oracle (nil detaches).
func WithChecker(ck Checker) Option {
	return func(c *Config) { c.Check = ck }
}

// WithMetrics accumulates the run's counters and histograms into reg
// (message/diff/retransmit totals per protocol, fault verdicts, frame
// bytes, wall time; see EXPERIMENTS.md for the full name list). The
// registry outlives the run and may be shared across concurrent runs;
// render it with reg.WritePrometheus. Nil detaches (the default — a
// detached run pays nothing).
func WithMetrics(reg *MetricsRegistry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithTransport selects how protocol messages travel, by transport
// registry name. "sim" (or "") keeps the deterministic discrete-event
// simulation — the default. "mem", "udp" and "tcp" run the cluster for
// real against the wall clock, carrying every remote message through the
// wire codec and the named backend. TransportNames lists what is
// available; an unknown name fails the run at startup.
func WithTransport(name string) Option {
	return func(c *Config) { c.Transport = name }
}

// WithConfig applies fn to the assembled Config after every preceding
// option, an escape hatch for fields without a dedicated option.
func WithConfig(fn func(*Config)) Option {
	return func(c *Config) { fn(c) }
}

// RunWith executes body under the configuration the options build:
//
//	report, err := godsm.RunWith(body,
//	    godsm.WithProcs(8),
//	    godsm.WithProtocol(godsm.BarU),
//	    godsm.WithCheck())
//
// Defaults without options: 8 nodes, BarU, a 1 MiB segment, the paper's
// cost model. This is the preferred entry point; Run with a literal
// Config remains supported for callers that already hold one.
func RunWith(body func(*Proc), opts ...Option) (*Report, error) {
	return RunWithContext(context.Background(), body, opts...)
}

// RunWithContext is RunWith with cancellation, with the same semantics as
// RunContext.
func RunWithContext(ctx context.Context, body func(*Proc), opts ...Option) (*Report, error) {
	cfg := Config{Procs: 8, Protocol: BarU, SegmentBytes: 1 << 20}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Protocol == Seq {
		cfg.Procs = 1
	}
	return RunContext(ctx, cfg, body)
}
