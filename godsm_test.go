package godsm

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestQuickstart exercises the public facade end to end: a ring of nodes
// exchanging partition sums through shared memory and reductions.
func TestQuickstart(t *testing.T) {
	const n = 4096
	body := func(p *Proc) {
		data := p.AllocF64(n)
		lo, hi := n*p.ID()/p.NumProcs(), n*(p.ID()+1)/p.NumProcs()
		if p.ID() == 0 {
			for i := 0; i < n; i++ {
				data.Set(i, float64(i))
			}
		}
		p.Barrier()
		p.StartMeasure()
		local := 0.0
		for i := lo; i < hi; i++ {
			local += data.Get(i)
		}
		p.Charge(Duration(hi-lo) * 100 * Nanosecond)
		total := p.Reduce(RedSum, []float64{local})
		if want := float64(n) * float64(n-1) / 2; total[0] != want {
			t.Errorf("sum = %v, want %v", total[0], want)
		}
		p.StopMeasure()
		p.SetResult(uint64(total[0]))
	}
	for _, proto := range Protocols() {
		rep, err := Run(Config{Procs: 4, Protocol: proto, SegmentBytes: n * 8}, body)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !rep.HasChecksum {
			t.Fatalf("%v: no result", proto)
		}
	}
}

func TestProtocolNamesRoundTrip(t *testing.T) {
	for _, k := range append([]ProtocolKind{Seq}, Protocols()...) {
		got, err := ParseProtocol(k.String())
		if err != nil || got != k {
			t.Errorf("ParseProtocol(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestCostModels(t *testing.T) {
	d := DefaultCostModel()
	if d.PageSize != 8192 {
		t.Errorf("page size = %d, want the paper's 8 KB", d.PageSize)
	}
	i := IdealCostModel()
	if i.AppStress(1<<20) != 1 {
		t.Error("ideal model exhibits VM stress")
	}
	if d.AppStress(d.MprotectStressThreshold*4) <= 1 {
		t.Error("default model exhibits no VM stress")
	}
}

// TestSharedWriteVisibilityProperty: whatever values node 0 writes before
// a barrier, every node reads back after it — under every protocol.
func TestSharedWriteVisibilityProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 256 {
			return true
		}
		for _, proto := range []ProtocolKind{LmwI, BarI, BarU, BarM} {
			ok := true
			body := func(p *Proc) {
				a := p.AllocF64(len(vals))
				if p.ID() == 0 {
					for i, v := range vals {
						a.Set(i, v)
					}
				}
				p.Barrier()
				// Read through the protocol repeatedly so overdrive
				// learning has identical iterations to observe.
				for it := 0; it < 4; it++ {
					for i, v := range vals {
						got := a.Get(i)
						if got != v && !(got != got && v != v) { // NaN-safe
							ok = false
						}
					}
					p.Barrier()
					p.IterationBoundary()
				}
				p.SetResult(1)
			}
			if _, err := Run(Config{Procs: 3, Protocol: proto, SegmentBytes: len(vals) * 8}, body); err != nil {
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestParseProtocolRejectsUnknown pins the error path ParseProtocol's
// round-trip test cannot reach: names outside the protocol table (and
// case variants — matching is exact) must error rather than default.
func TestParseProtocolRejectsUnknown(t *testing.T) {
	for _, name := range []string{"", "bar-x", "lmw", "BAR-U", "bar-u ", "sequential"} {
		if got, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) = %v, want error", name, got)
		}
	}
	protos := Protocols()
	if len(protos) != 6 {
		t.Fatalf("Protocols() lists %d protocols, want the paper's 6", len(protos))
	}
	seen := map[string]bool{}
	for _, p := range protos {
		if seen[p.String()] {
			t.Errorf("Protocols() lists %v twice", p)
		}
		seen[p.String()] = true
	}
}

// TestRunWithOptions drives the functional-options surface: defaults and
// explicit options land in the Config, WithCheck attaches a live oracle,
// and Seq collapses to a single node regardless of WithProcs.
func TestRunWithOptions(t *testing.T) {
	const n = 512
	body := func(p *Proc) {
		a := p.AllocF64(n)
		lo, hi := n*p.ID()/p.NumProcs(), n*(p.ID()+1)/p.NumProcs()
		for i := lo; i < hi; i++ {
			a.Set(i, float64(i))
		}
		p.Barrier()
		p.SetResult(a.Checksum(0, n))
	}
	rep, err := RunWith(body,
		WithProcs(4), WithProtocol(BarU), WithSegmentBytes(n*8), WithCheck())
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if rep.Procs != 4 || !rep.HasChecksum {
		t.Fatalf("procs = %d, checksum = %v; want 4, true", rep.Procs, rep.HasChecksum)
	}

	seq, err := RunWith(body, WithProcs(4), WithProtocol(Seq), WithSegmentBytes(n*8))
	if err != nil {
		t.Fatalf("RunWith(Seq): %v", err)
	}
	if seq.Procs != 1 {
		t.Fatalf("Seq ran on %d procs, want 1", seq.Procs)
	}
	if seq.Checksum != rep.Checksum {
		t.Fatalf("checksum %#x under bar-u, %#x sequential", rep.Checksum, seq.Checksum)
	}
}

// TestRunWithRejectsBadPlans: a fault plan the injector would clamp or
// ignore fails RunWith up front, the same as it fails dsmrun and dsmd.
func TestRunWithRejectsBadPlans(t *testing.T) {
	body := func(p *Proc) { p.Barrier() }
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"drop above one", []Option{WithFaults(&FaultPlan{Rules: []FaultRule{{From: AnyNode, To: AnyNode, Drop: 1.5}}})}},
		{"negative dup", []Option{WithFaults(&FaultPlan{Rules: []FaultRule{{From: AnyNode, To: AnyNode, Dup: -0.5}}})}},
		{"inert straggler", []Option{WithFaults(&FaultPlan{Stragglers: []StragglerRule{{Node: 1, Factor: 0.5}}})}},
		{"straggler over mem", []Option{WithTransport("mem"),
			WithFaults(&FaultPlan{Stragglers: []StragglerRule{{Node: 1, Factor: 2}}})}},
	} {
		_, err := RunWith(body, append(tc.opts, WithProcs(4), WithSegmentBytes(4096))...)
		if err == nil || !strings.Contains(err.Error(), "core: Faults.") {
			t.Errorf("%s: RunWith returned %v, want the plan rejected up front", tc.name, err)
		}
	}
}

// TestWithMetrics attaches a registry to a run and checks the core
// counters came out non-zero and labelled with the protocol.
func TestWithMetrics(t *testing.T) {
	const n = 512
	body := func(p *Proc) {
		a := p.AllocF64(n)
		lo, hi := n*p.ID()/p.NumProcs(), n*(p.ID()+1)/p.NumProcs()
		for i := lo; i < hi; i++ {
			a.Set(i, float64(i))
		}
		p.Barrier()
		p.SetResult(a.Checksum(0, n))
	}
	reg := NewMetricsRegistry()
	if _, err := RunWith(body,
		WithProcs(4), WithProtocol(BarU), WithSegmentBytes(n*8), WithMetrics(reg)); err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`godsm_runs_total{protocol="bar-u",status="ok"} 1`,
		`godsm_messages_total{protocol="bar-u"}`,
		`godsm_barriers_total{protocol="bar-u"}`,
		`godsm_run_wall_seconds_count{protocol="bar-u"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `godsm_messages_total{protocol="bar-u"} 0`) {
		t.Errorf("message counter is zero:\n%s", out)
	}
}
