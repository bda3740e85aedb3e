package check

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"godsm/internal/core"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/vm"
)

// stencilBody returns a small overdrive-safe SPMD stencil: two buffers,
// a full a->b->a period per outer iteration (so the write pattern after
// each barrier site is invariant), owner-computes row blocks with halo
// reads into the neighbours' blocks, self-reported checksum.
func stencilBody(rows, cols, iters, warm int) func(*core.Proc) {
	return func(p *core.Proc) {
		a := p.AllocF64Matrix(rows, cols)
		b := p.AllocF64Matrix(rows, cols)
		me, np := p.ID(), p.NumProcs()
		lo, hi := rows*me/np, rows*(me+1)/np
		if me == 0 {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					a.Set(r, c, float64(r*cols+c)+float64((r*r+c*c)%97))
				}
			}
		}
		p.Barrier()
		half := func(src, dst core.F64Matrix) {
			for r := lo; r < hi; r++ {
				for c := 0; c < cols; c++ {
					s := src.At(r, c)
					if r > 0 {
						s += src.At(r-1, c)
					}
					if r < rows-1 {
						s += src.At(r+1, c)
					}
					dst.Set(r, c, s/3)
				}
			}
			p.Barrier()
		}
		for it := 0; it < iters; it++ {
			if it == warm {
				p.StartMeasure()
			}
			half(a, b)
			half(b, a)
			p.IterationBoundary()
		}
		p.StopMeasure()
		p.SetResult(a.ChecksumRows(0, rows))
	}
}

func TestOracleValidatesDirectly(t *testing.T) {
	// Drive an Oracle by hand: a recorded write the "node memory" also
	// holds passes; one the memory lacks is a consistency violation.
	const ps = 1024
	as := vm.NewAddressSpace(2*ps, ps)
	o := New()
	o.Write(0, 8, 0x1234)
	binary.LittleEndian.PutUint64(as.Mem[8:], 0x1234)
	o.Epoch(0, as)
	if err := o.Finish(); err != nil {
		t.Fatalf("conforming epoch flagged: %v", err)
	}
	if o.Epochs() != 1 || len(o.History()) != 1 {
		t.Fatalf("epochs = %d, history rows = %d, want 1, 1", o.Epochs(), len(o.History()))
	}

	o.Write(0, 16, 0x5678) // recorded but never applied to as.Mem
	o.Epoch(0, as)
	err := o.Finish()
	if err == nil || !strings.Contains(err.Error(), "consistency violation") {
		t.Fatalf("missing store not flagged: %v", err)
	}
	if !strings.Contains(err.Error(), "offset 16") {
		t.Errorf("violation not localized to offset 16: %v", err)
	}
}

func TestOracleSkipsInvalidAndStalePages(t *testing.T) {
	const ps = 1024
	as := vm.NewAddressSpace(2*ps, ps)
	o := New()
	// Page 0 diverges but is marked stale (bar-m's legal staleness);
	// page 1 diverges but is invalid. Neither may be flagged.
	o.Write(0, 0, 1)
	o.Write(0, ps, 2)
	o.Stale(0, 0)
	as.SetProt(1, vm.None)
	o.Epoch(0, as)
	if err := o.Finish(); err != nil {
		t.Fatalf("stale/invalid pages flagged: %v", err)
	}
}

func TestOracleRacePolicy(t *testing.T) {
	const ps = 1024
	// Different final bits at one word from two nodes: fatal.
	o := New()
	as0 := vm.NewAddressSpace(ps, ps)
	as1 := vm.NewAddressSpace(ps, ps)
	o.Write(0, 0, 1)
	o.Write(1, 0, 2)
	o.Epoch(0, as0)
	o.Epoch(1, as1)
	err := o.Finish()
	if err == nil || !strings.Contains(err.Error(), "race") {
		t.Fatalf("conflicting same-word writes not flagged as race: %v", err)
	}

	// Identical bits: benign, counted, and the image must hold the value.
	o = New()
	as0 = vm.NewAddressSpace(ps, ps)
	as1 = vm.NewAddressSpace(ps, ps)
	o.Write(0, 0, 7)
	o.Write(1, 0, 7)
	binary.LittleEndian.PutUint64(as0.Mem, 7)
	binary.LittleEndian.PutUint64(as1.Mem, 7)
	o.Epoch(0, as0)
	o.Epoch(1, as1)
	if err := o.Finish(); err != nil {
		t.Fatalf("idempotent same-word writes flagged: %v", err)
	}
	if o.Benign() != 1 {
		t.Errorf("benign count = %d, want 1", o.Benign())
	}
}

func TestOracleCaptureEpoch(t *testing.T) {
	const ps = 1024
	as := vm.NewAddressSpace(ps, ps)
	o := New()
	o.CaptureEpoch(1)
	o.Write(0, 0, 10)
	binary.LittleEndian.PutUint64(as.Mem, 10)
	o.Epoch(0, as) // epoch 0: not captured
	if o.Captured() != nil {
		t.Fatal("captured before requested epoch closed")
	}
	o.Write(0, 0, 11)
	binary.LittleEndian.PutUint64(as.Mem, 11)
	o.Epoch(0, as) // epoch 1: captured
	img := o.Captured()
	if img == nil || binary.LittleEndian.Uint64(img) != 11 {
		t.Fatalf("captured image = %v, want word 11 at offset 0", img)
	}
}

func TestOracleInRunCatchesRace(t *testing.T) {
	// End-to-end: a genuinely racy body (all nodes store different values
	// into word 0 of the same epoch) must fail the run via Finish.
	body := func(p *core.Proc) {
		a := p.AllocF64(16)
		p.Barrier()
		a.Set(0, float64(p.ID()+1))
		p.Barrier()
		p.StartMeasure()
		p.StopMeasure()
		p.SetResult(0)
	}
	_, err := core.Run(core.Config{
		Procs: 2, Protocol: core.ProtoLmwI, SegmentBytes: 4096, Check: New(),
	}, body)
	if err == nil || !strings.Contains(err.Error(), "race") {
		t.Fatalf("racy run not failed: %v", err)
	}
}

func TestOracleConformsAcrossProtocols(t *testing.T) {
	// Every protocol runs the stencil under an attached oracle with no
	// findings: the in-run validation itself is protocol-clean.
	body := stencilBody(32, 64, 3, 1)
	for _, proto := range append([]core.ProtocolKind{core.ProtoSeq}, core.Protocols()...) {
		procs := 4
		if proto == core.ProtoSeq {
			procs = 1
		}
		o := New()
		_, err := core.Run(core.Config{
			Procs: procs, Protocol: proto, SegmentBytes: 2 * 32 * 64 * 8, Check: o,
		}, body)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if o.Epochs() == 0 {
			t.Fatalf("%v: oracle saw no epochs", proto)
		}
	}
}

func TestDifferentialConforms(t *testing.T) {
	res, err := Differential(stencilBody(32, 64, 3, 1), Options{
		Procs:        4,
		SegmentBytes: 2 * 32 * 64 * 8,
		Seeds:        []int64{1},
	})
	if err != nil {
		t.Fatalf("differential failed: %v\n%s", err, res.Report)
	}
	// 1 reference + 6 protocols x (fault-free + 1 seed).
	if want := 1 + 6*2; len(res.Runs) != want {
		t.Fatalf("ran %d runs, want %d", len(res.Runs), want)
	}
	ref := res.Runs[0]
	for _, r := range res.Runs[1:] {
		if r.Checksum != ref.Checksum || r.Epochs != ref.Epochs {
			t.Errorf("%v %s: checksum %#x epochs %d, reference %#x/%d",
				r.Protocol, r.Variant, r.Checksum, r.Epochs, ref.Checksum, ref.Epochs)
		}
	}
	if res.Report != "" {
		t.Errorf("conforming result carries a report:\n%s", res.Report)
	}
}

func TestDifferentialTransportMem(t *testing.T) {
	// All six protocols over the in-process real transport: encoded
	// frames, realtime kernel, concurrent nodes — and still bit-identical
	// to the sequential reference.
	res, err := Differential(stencilBody(32, 64, 3, 1), Options{
		Procs:        4,
		SegmentBytes: 2 * 32 * 64 * 8,
		Transport:    "mem",
	})
	if err != nil {
		t.Fatalf("differential over mem failed: %v\n%s", err, res.Report)
	}
	if want := 1 + 6; len(res.Runs) != want {
		t.Fatalf("ran %d runs, want %d", len(res.Runs), want)
	}
	ref := res.Runs[0]
	for _, r := range res.Runs[1:] {
		if r.Checksum != ref.Checksum || r.Epochs != ref.Epochs {
			t.Errorf("%v %s over mem: checksum %#x epochs %d, reference %#x/%d",
				r.Protocol, r.Variant, r.Checksum, r.Epochs, ref.Checksum, ref.Epochs)
		}
	}
}

func TestDifferentialTransportMemDelayDup(t *testing.T) {
	// Delayed and duplicated frames leave the sender on a timer, after its
	// next send has reused the buffer they were encoded in (netsim's
	// sendReal). Nothing is dropped, so every fault here takes one of
	// those timer paths; a frame that did not get its own copy arrives
	// carrying a later message.
	plan := &netsim.FaultPlan{Seed: 9, Rules: []netsim.FaultRule{{
		From: netsim.AnyNode, To: netsim.AnyNode,
		Dup: 0.3, Reorder: 0.5, Delay: 300 * sim.Microsecond,
	}}}
	res, err := Differential(stencilBody(32, 64, 3, 1), Options{
		Procs:        4,
		SegmentBytes: 2 * 32 * 64 * 8,
		Protocols:    []core.ProtocolKind{core.ProtoLmwI, core.ProtoBarU},
		Plans:        []*netsim.FaultPlan{plan},
		Transport:    "mem",
	})
	if err != nil {
		t.Fatalf("differential over mem with delay+dup failed: %v\n%s", err, res.Report)
	}
	ref := res.Runs[0]
	for _, r := range res.Runs[1:] {
		if r.Checksum != ref.Checksum || r.Epochs != ref.Epochs {
			t.Errorf("%v %s over mem: checksum %#x epochs %d, reference %#x/%d",
				r.Protocol, r.Variant, r.Checksum, r.Epochs, ref.Checksum, ref.Epochs)
		}
	}
}

func TestDifferentialTransportUDP(t *testing.T) {
	// Loopback sockets with injected loss on top: the reliability layer
	// must recover both the seeded faults and any real socket drops.
	res, err := Differential(stencilBody(32, 64, 3, 1), Options{
		Procs:        4,
		SegmentBytes: 2 * 32 * 64 * 8,
		Protocols:    []core.ProtocolKind{core.ProtoLmwI, core.ProtoBarU},
		Seeds:        []int64{3},
		Transport:    "udp",
	})
	if err != nil {
		t.Fatalf("differential over udp failed: %v\n%s", err, res.Report)
	}
	ref := res.Runs[0]
	for _, r := range res.Runs[1:] {
		if r.Checksum != ref.Checksum || r.Epochs != ref.Epochs {
			t.Errorf("%v %s over udp: checksum %#x epochs %d, reference %#x/%d",
				r.Protocol, r.Variant, r.Checksum, r.Epochs, ref.Checksum, ref.Epochs)
		}
	}
}

func TestEncodeInFlightReportsIdentical(t *testing.T) {
	// The sim-codec mode round-trips every remote packet through the wire
	// codec, so receivers get decoded copies instead of shared pointers.
	// If any sender mutated a payload after Send (the aliasing hazard a
	// real transport turns into corruption), or the codec dropped a bit,
	// the runs would diverge — so the full reports must be identical,
	// virtual times included.
	body := stencilBody(32, 64, 3, 1)
	for _, proto := range core.Protocols() {
		for _, faulty := range []bool{false, true} {
			cfg := core.Config{
				Procs: 4, Protocol: proto, SegmentBytes: 2 * 32 * 64 * 8,
			}
			if faulty {
				cfg.Faults = core.ConformancePlan(proto, 11)
			}
			plain, err := core.Run(cfg, body)
			if err != nil {
				t.Fatalf("%v faulty=%v: %v", proto, faulty, err)
			}
			cfg.EncodeInFlight = true
			coded, err := core.Run(cfg, body)
			if err != nil {
				t.Fatalf("%v faulty=%v encoded: %v", proto, faulty, err)
			}
			if !reflect.DeepEqual(plain, coded) {
				t.Errorf("%v faulty=%v: report changed under encode-in-flight:\nplain: %+v\ncoded: %+v",
					proto, faulty, plain, coded)
			}
		}
	}
}

func TestOverdriveRecoversFromFlushLoss(t *testing.T) {
	// Dropping update flushes under the overdrive protocols used to be a
	// silent consistency break (bar-m had no invalidation fallback). The
	// stale-refetch repair turned it into recoverable loss: a page whose
	// version accounting falls short is refetched from its home, so the
	// run must conform bit-identically even under heavy unshielded drops.
	lossy := &netsim.FaultPlan{
		Seed: 5,
		Rules: []netsim.FaultRule{{
			From: netsim.AnyNode, To: netsim.AnyNode, Drop: 0.3,
		}},
	}
	body := stencilBody(32, 64, 3, 0)
	res, err := Differential(body, Options{
		Procs:        4,
		SegmentBytes: 2 * 32 * 64 * 8,
		Protocols:    []core.ProtocolKind{core.ProtoBarS, core.ProtoBarM},
		Plans:        []*netsim.FaultPlan{lossy},
		TailSize:     16,
	})
	if err != nil {
		t.Fatalf("flush loss not recovered: %v\n%s", err, res.Report)
	}
	// The recovery path must actually have fired — otherwise the plan got
	// too gentle and the test proves nothing.
	rep, err := core.Run(core.Config{
		Procs: 4, Protocol: core.ProtoBarM, SegmentBytes: 2 * 32 * 64 * 8,
		Faults: lossy,
	}, body)
	if err != nil {
		t.Fatalf("bar-m under flush loss: %v", err)
	}
	if rep.Total.StaleRefetches == 0 {
		t.Error("no stale refetches under 30% flush drop; plan exercises nothing")
	}
}

func TestDifferentialCatchesDivergence(t *testing.T) {
	// A write pattern that changes after overdrive engages is the failure
	// mode bar-m cannot repair: the write faults on a frozen protection
	// and the run dies. The harness must surface the failure with a
	// trace-tail report.
	const rows, cols, iters = 32, 64, 3
	body := func(p *core.Proc) {
		a := p.AllocF64Matrix(rows, cols)
		me, np := p.ID(), p.NumProcs()
		lo, hi := rows*me/np, rows*(me+1)/np
		p.Barrier()
		for it := 0; it < iters; it++ {
			for r := lo; r < hi; r++ {
				for c := 0; c < cols; c++ {
					a.Set(r, c, a.At(r, c)+float64(r+c+1))
				}
			}
			if it == iters-1 && me == 0 && np > 1 {
				// Overdrive engaged one iteration ago (LearnIters=2); this
				// write lands in the last node's block, which node 0 never
				// wrote during learning.
				a.Set(rows-1, 0, 1)
			}
			p.Barrier()
			p.IterationBoundary()
		}
		p.SetResult(a.ChecksumRows(0, rows))
	}
	res, err := Differential(body, Options{
		Procs:        4,
		SegmentBytes: rows * cols * 8,
		Protocols:    []core.ProtocolKind{core.ProtoBarM},
		TailSize:     16,
	})
	if err == nil {
		t.Fatal("diverging write pattern under bar-m not caught")
	}
	if res.Report == "" {
		t.Fatal("divergence produced no report")
	}
	if !strings.Contains(res.Report, "protocol events") {
		t.Errorf("report lacks trace tail:\n%s", res.Report)
	}
}

// TestDifferentialCrashRestartInPlace is the headline robustness claim
// from the recovery work: for every protocol, a node crashing at a
// mid-run barrier and restarting immediately from its barrier-consistent
// checkpoint yields per-epoch digests, a final image and an application
// checksum bit-identical to the sequential reference, with a clean
// oracle verdict — crash recovery is invisible in the output.
func TestDifferentialCrashRestartInPlace(t *testing.T) {
	plan := &netsim.FaultPlan{
		Crashes: []netsim.CrashRule{{Node: 2, Epoch: 3, RestartAfter: 0}},
	}
	body := stencilBody(32, 64, 3, 1)
	res, err := Differential(body, Options{
		Procs:        4,
		SegmentBytes: 2 * 32 * 64 * 8,
		Plans:        []*netsim.FaultPlan{plan},
	})
	if err != nil {
		t.Fatalf("crash differential failed: %v\n%s", err, res.Report)
	}
	ref := res.Runs[0]
	for _, r := range res.Runs[1:] {
		if r.Checksum != ref.Checksum || r.Epochs != ref.Epochs {
			t.Errorf("%v %s: checksum %#x epochs %d, reference %#x/%d",
				r.Protocol, r.Variant, r.Checksum, r.Epochs, ref.Checksum, ref.Epochs)
		}
	}
	// The schedule must actually have fired, or the equality proves nothing.
	rep, err := core.Run(core.Config{
		Procs: 4, Protocol: core.ProtoLmwI, SegmentBytes: 2 * 32 * 64 * 8,
		Faults: plan,
	}, body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Crashes != 1 || rep.Total.Restarts != 1 {
		t.Fatalf("Crashes=%d Restarts=%d, want 1/1", rep.Total.Crashes, rep.Total.Restarts)
	}
}

// rejoinBody is stencilBody with only node 0 reporting a checksum: a
// node crashed for a window of barriers drains its remaining iterations
// behind the survivors (or, dead forever, never finishes at all), so
// its final image legitimately differs from theirs.
func rejoinBody(rows, cols, iters int) func(*core.Proc) {
	return func(p *core.Proc) {
		a := p.AllocF64Matrix(rows, cols)
		b := p.AllocF64Matrix(rows, cols)
		me, np := p.ID(), p.NumProcs()
		lo, hi := rows*me/np, rows*(me+1)/np
		if me == 0 {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					a.Set(r, c, float64(r*cols+c)+float64((r*r+c*c)%97))
				}
			}
		}
		p.Barrier()
		half := func(src, dst core.F64Matrix) {
			for r := lo; r < hi; r++ {
				for c := 0; c < cols; c++ {
					s := src.At(r, c)
					if r > 0 {
						s += src.At(r-1, c)
					}
					if r < rows-1 {
						s += src.At(r+1, c)
					}
					dst.Set(r, c, s/3)
				}
			}
			p.Barrier()
		}
		for it := 0; it < iters; it++ {
			half(a, b)
			half(b, a)
			p.IterationBoundary()
		}
		if me == 0 {
			p.SetResult(a.ChecksumRows(0, rows))
		}
	}
}

// TestOracleCleanAcrossCrashRejoin attaches the consistency oracle to
// runs with a delayed restart (the node misses barriers, rejoins, and
// drains a solo tail of epochs) and with a crash-stop that never
// restarts. Both must terminate with zero oracle findings under every
// protocol: re-elected homes, adopted manager state and replayed
// checkpoints never expose a stale or mis-merged word.
func TestOracleCleanAcrossCrashRejoin(t *testing.T) {
	body := rejoinBody(32, 64, 3)
	for _, proto := range core.Protocols() {
		for _, restart := range []int{1, -1} {
			o := New()
			_, err := core.Run(core.Config{
				Procs: 4, Protocol: proto, SegmentBytes: 2 * 32 * 64 * 8,
				Check: o,
				Faults: &netsim.FaultPlan{
					Crashes: []netsim.CrashRule{{Node: 2, Epoch: 3, RestartAfter: restart}},
				},
			}, body)
			if err != nil {
				t.Fatalf("%v restart=%d: %v", proto, restart, err)
			}
			if ferr := o.Finish(); ferr != nil {
				t.Errorf("%v restart=%d: oracle: %v", proto, restart, ferr)
			}
			if o.Epochs() == 0 {
				t.Errorf("%v restart=%d: oracle saw no epochs", proto, restart)
			}
		}
	}
}
