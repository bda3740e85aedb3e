package check

import (
	"bytes"
	"fmt"
	"strings"

	"godsm/internal/core"
	"godsm/internal/cost"
	"godsm/internal/netsim"
	"godsm/internal/trace"
)

// Options parameterizes one differential conformance run.
type Options struct {
	// Procs is the node count for the protocol runs (the sequential
	// reference always runs on 1). Default 8.
	Procs int
	// SegmentBytes sizes the shared segment. Required.
	SegmentBytes int
	// Model is the cost model; nil selects cost.Default().
	Model *cost.Model
	// Protocols lists the protocols to hold to the sequential reference;
	// nil selects all six (core.Protocols()).
	Protocols []core.ProtocolKind
	// Seeds adds one faulty variant per seed to every protocol, using the
	// protocol-appropriate schedule core.ConformancePlan builds (overdrive
	// flushes shielded from drops; see that function).
	Seeds []int64
	// Plans adds fault plans applied verbatim to every protocol. Drop
	// plans are safe everywhere: even the overdrive protocols repair lost
	// update flushes by refetching the shortfall pages (see
	// stats.Counters.StaleRefetches), at the price of extra traffic.
	Plans []*netsim.FaultPlan
	// TailSize bounds the trace ring replayed into a divergence report.
	// Default 64.
	TailSize int
	// Configure, when non-nil, adjusts each run's Config after the
	// harness fills it (e.g. LearnIters); it must not change Procs,
	// Protocol, Faults, Check or Trace.
	Configure func(*core.Config)
	// Transport, when non-"", runs every protocol variant over the named
	// real transport backend ("mem", "udp" or "tcp"; see
	// internal/transport's registry) instead of the virtual wire; the
	// sequential reference still runs in sim (it is single-node and
	// exchanges no messages). The oracle's digests and checksums are
	// timing-independent, so the conformance verdict is as strict as in
	// sim mode — but a divergence cannot be replayed deterministically, so
	// reports carry no localization detail.
	Transport string
}

// RunStat summarizes one conforming run.
type RunStat struct {
	Protocol core.ProtocolKind
	Variant  string // "fault-free", "seed=N", or "plan[i]"
	Checksum uint64
	Epochs   int
	Benign   int // idempotent same-word cross-node writes
}

// Result is the outcome of Differential.
type Result struct {
	// Runs lists every run that executed, in order.
	Runs []RunStat
	// Report is a human-readable localization of the first divergence:
	// protocol, variant, epoch, page, first differing offset, and the
	// divergent run's most recent trace events. Empty when all runs
	// conform.
	Report string
}

// variant pairs a fault plan with its display name.
type variant struct {
	name string
	plan *netsim.FaultPlan
}

// Differential runs body under the sequential baseline, then under every
// protocol × variant in opts, each with a fresh Oracle attached, and holds
// all runs to the reference bit for bit: per-epoch expected-image digests,
// final memory image, epoch count and the application's self-reported
// checksum. The first mismatch is localized — the offending epoch and page
// from the digest history, the first differing byte offset from a
// deterministic re-run capturing that epoch's image, recent protocol
// events from a trace ring — into Result.Report, and returned as an error.
// A nil error means every run conformed.
func Differential(body func(*core.Proc), opts Options) (*Result, error) {
	if opts.Procs == 0 {
		opts.Procs = 8
	}
	if opts.Protocols == nil {
		opts.Protocols = core.Protocols()
	}
	if opts.TailSize == 0 {
		opts.TailSize = 64
	}
	res := &Result{}

	refCfg := opts.config(core.ProtoSeq, nil)
	ref := New()
	refCfg.Check = ref
	refRep, err := core.Run(refCfg, body)
	if err != nil {
		return res, fmt.Errorf("check: sequential reference failed: %w", err)
	}
	res.Runs = append(res.Runs, RunStat{
		Protocol: core.ProtoSeq, Variant: "fault-free",
		Checksum: refRep.Checksum, Epochs: ref.Epochs(), Benign: ref.Benign(),
	})

	for _, proto := range opts.Protocols {
		variants := []variant{{name: "fault-free"}}
		for _, seed := range opts.Seeds {
			variants = append(variants, variant{
				name: fmt.Sprintf("seed=%d", seed),
				plan: core.ConformancePlan(proto, seed),
			})
		}
		for i, plan := range opts.Plans {
			variants = append(variants, variant{name: fmt.Sprintf("plan[%d]", i), plan: plan})
		}
		for _, v := range variants {
			cfg := opts.config(proto, v.plan)
			o := New()
			cfg.Check = o
			rep, err := core.Run(cfg, body)
			if err != nil {
				// The oracle's own in-run verdict (or an engine failure):
				// re-run for the trace tail, then report. A real-transport
				// run cannot be replayed deterministically, so its report is
				// just the verdict.
				if opts.Transport == "" {
					res.Report = opts.divergenceReport(body, proto, v, -1, err.Error())
				} else {
					res.Report = fmt.Sprintf("conformance failure: %v %s over %s\n  %s\n",
						proto, v.name, opts.Transport, err)
				}
				return res, fmt.Errorf("check: %v %s: %w", proto, v.name, err)
			}
			res.Runs = append(res.Runs, RunStat{
				Protocol: proto, Variant: v.name,
				Checksum: rep.Checksum, Epochs: o.Epochs(), Benign: o.Benign(),
			})
			if msg := compare(ref, refRep.Checksum, o, rep.Checksum); msg != "" {
				if opts.Transport == "" {
					epoch, page := locate(ref.History(), o.History())
					res.Report = opts.localize(body, proto, v, epoch, page, msg)
				} else {
					res.Report = fmt.Sprintf("conformance divergence: %v %s over %s\n  %s\n",
						proto, v.name, opts.Transport, msg)
				}
				return res, fmt.Errorf("check: %v %s diverged from sequential reference: %s", proto, v.name, msg)
			}
		}
	}
	return res, nil
}

// config builds the Config for one run.
func (opts *Options) config(proto core.ProtocolKind, plan *netsim.FaultPlan) core.Config {
	procs := opts.Procs
	if proto == core.ProtoSeq {
		procs = 1
	}
	cfg := core.Config{
		Procs:        procs,
		Protocol:     proto,
		SegmentBytes: opts.SegmentBytes,
		Model:        opts.Model,
		Faults:       plan,
	}
	if proto != core.ProtoSeq {
		cfg.Transport = opts.Transport
	}
	if opts.Configure != nil {
		opts.Configure(&cfg)
	}
	return cfg
}

// compare holds one protocol run's oracle state to the reference's,
// returning "" on conformance or a one-line mismatch description.
func compare(ref *Oracle, refSum uint64, o *Oracle, sum uint64) string {
	if o.Epochs() != ref.Epochs() {
		return fmt.Sprintf("ran %d epochs, reference ran %d", o.Epochs(), ref.Epochs())
	}
	if sum != refSum {
		return fmt.Sprintf("application checksum %#x, reference %#x", sum, refSum)
	}
	if epoch, page := locate(ref.History(), o.History()); epoch >= 0 {
		return fmt.Sprintf("per-epoch digest differs first at epoch %d page %d", epoch, page)
	}
	if !bytes.Equal(o.Image(), ref.Image()) {
		return fmt.Sprintf("final image differs at offset %d", firstDiff(o.Image(), ref.Image()))
	}
	return ""
}

// locate returns the first (epoch, page) whose digests differ, or (-1, -1).
func locate(ref, got [][]uint64) (epoch, page int) {
	for e := 0; e < len(ref) && e < len(got); e++ {
		for pg := range ref[e] {
			if pg < len(got[e]) && got[e][pg] != ref[e][pg] {
				return e, pg
			}
		}
	}
	return -1, -1
}

// localize re-runs the reference and the divergent configuration
// deterministically, capturing the offending epoch's expected images and
// the divergent run's trace tail, and renders the minimal report.
func (opts *Options) localize(body func(*core.Proc), proto core.ProtocolKind, v variant, epoch, page int, msg string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance divergence: %v %s\n  %s\n", proto, v.name, msg)
	if epoch >= 0 {
		refO := New()
		refO.CaptureEpoch(epoch)
		refCfg := opts.config(core.ProtoSeq, nil)
		refCfg.Check = refO
		_, _ = core.Run(refCfg, body) // deterministic replay; verdict already known

		o := New()
		o.CaptureEpoch(epoch)
		cfg := opts.config(proto, v.plan)
		cfg.Check = o
		_, _ = core.Run(cfg, body)

		if refImg, img := refO.Captured(), o.Captured(); refImg != nil && img != nil && !bytes.Equal(refImg, img) {
			off := firstDiff(img, refImg)
			fmt.Fprintf(&b, "  epoch %d page %d: first differing offset %d: got %#x, want %#x\n",
				epoch, off/pageSizeOf(opts), off, word(img[off&^7:]), word(refImg[off&^7:]))
		}
	}
	b.WriteString(opts.divergenceReport(body, proto, v, epoch, ""))
	return b.String()
}

// divergenceReport re-runs the divergent configuration with a trace ring
// attached and renders its most recent events (plus header when non-"").
func (opts *Options) divergenceReport(body func(*core.Proc), proto core.ProtocolKind, v variant, epoch int, header string) string {
	var b strings.Builder
	if header != "" {
		fmt.Fprintf(&b, "conformance failure: %v %s\n  %s\n", proto, v.name, header)
	}
	tl := trace.NewTail(opts.TailSize)
	cfg := opts.config(proto, v.plan)
	cfg.Trace = tl
	cfg.Check = nil // verdict already known; collect events only
	_, _ = core.Run(cfg, body)
	events := tl.Tail(opts.TailSize)
	fmt.Fprintf(&b, "  last %d protocol events:\n", len(events))
	for _, e := range events {
		fmt.Fprintf(&b, "    %v\n", e)
	}
	return b.String()
}

func pageSizeOf(opts *Options) int {
	if opts.Model != nil {
		return opts.Model.PageSize
	}
	return cost.Default().PageSize
}

// SeedPlans builds one moderate drop/duplicate/reorder plan per seed,
// applied to every packet class. Safe for all protocols: the overdrive
// protocols (bar-s/bar-m) repair lost update flushes with stale
// refetches. Options.Seeds routes through core.ConformancePlan instead,
// which shields those flushes and so keeps the runs refetch-free.
func SeedPlans(seeds ...int64) []*netsim.FaultPlan {
	plans := make([]*netsim.FaultPlan, 0, len(seeds))
	for _, s := range seeds {
		plans = append(plans, &netsim.FaultPlan{
			Seed: s,
			Rules: []netsim.FaultRule{{
				From: netsim.AnyNode, To: netsim.AnyNode,
				Drop: 0.05, Dup: 0.05, Reorder: 0.2,
			}},
		})
	}
	return plans
}
