package core

import (
	"strings"
	"testing"

	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// Crash-stop recovery tests: seeded CrashRules kill nodes at barrier
// epochs and the whole stack — checkpointing, re-election, restart
// replay — must keep the survivors' (and for in-place restarts, the
// whole cluster's) results bit-identical and the run terminating.

func crashFaults(rules ...netsim.CrashRule) *netsim.FaultPlan {
	return &netsim.FaultPlan{Crashes: rules}
}

// TestCrashRuleValidation: the config layer must reject schedules the
// recovery machinery cannot honor, naming the offending rule.
func TestCrashRuleValidation(t *testing.T) {
	body := miniStencil(64, 128, 8, 5)
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"node 0", func() Config {
			cfg := stencilConfig(4, ProtoBarI)
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 0, Epoch: 3})
			return cfg
		}, "node 0"},
		{"node out of range", func() Config {
			cfg := stencilConfig(4, ProtoBarI)
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 4, Epoch: 3})
			return cfg
		}, "out of range"},
		{"epoch zero", func() Config {
			cfg := stencilConfig(4, ProtoBarI)
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 1, Epoch: 0})
			return cfg
		}, "epoch 0"},
		{"duplicate rule", func() Config {
			cfg := stencilConfig(4, ProtoBarI)
			cfg.Faults = crashFaults(
				netsim.CrashRule{Node: 1, Epoch: 3},
				netsim.CrashRule{Node: 1, Epoch: 5})
			return cfg
		}, "more than one"},
		{"seq protocol", func() Config {
			cfg := stencilConfig(1, ProtoSeq)
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 1, Epoch: 3})
			return cfg
		}, "not seq"},
		{"lmw gc", func() Config {
			cfg := stencilConfig(4, ProtoLmwI)
			cfg.LmwGCBarriers = 4
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 1, Epoch: 3})
			return cfg
		}, "LmwGCBarriers"},
		{"never restarts over mem", func() Config {
			cfg := stencilConfig(4, ProtoBarU)
			cfg.Transport = "mem"
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 2, Epoch: 3, RestartAfter: -1})
			return cfg
		}, "transport mem"},
		{"delayed restart over udp", func() Config {
			cfg := stencilConfig(4, ProtoBarI)
			cfg.Transport = "udp"
			cfg.Faults = crashFaults(netsim.CrashRule{Node: 2, Epoch: 3, RestartAfter: 1})
			return cfg
		}, "transport udp"},
	}
	for _, tc := range cases {
		_, err := Run(tc.cfg(), body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestCrashRestartInPlaceBitIdentical is the headline robustness claim:
// for every protocol, a node crashing at a mid-run barrier and restarting
// immediately from its checkpoint (RestartAfter 0) yields the exact
// fault-free application checksum — recovery is output-invisible.
func TestCrashRestartInPlaceBitIdentical(t *testing.T) {
	for _, proto := range Protocols() {
		want := runStencil(t, 4, proto).Checksum
		cfg := stencilConfig(4, proto)
		cfg.Faults = crashFaults(netsim.CrashRule{Node: 2, Epoch: 7, RestartAfter: 0})
		r, err := Run(cfg, miniStencil(64, 128, 8, 5))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if r.Checksum != want {
			t.Errorf("%v: checksum %#x, want fault-free %#x", proto, r.Checksum, want)
		}
		if r.Total.Crashes != 1 || r.Total.Restarts != 1 {
			t.Errorf("%v: Crashes=%d Restarts=%d, want 1/1", proto, r.Total.Crashes, r.Total.Restarts)
		}
		if r.Total.CheckpointBytes == 0 {
			t.Errorf("%v: no checkpoint bytes written", proto)
		}
	}
}

// TestCrashDeadForeverSurvivorsTerminate: a node that crashes and never
// restarts must not wedge the run. Survivors complete every barrier,
// adopt the dead node's homes and manager roles, and agree on a result
// among themselves (the dead node's remaining iterations are simply
// lost, so the value legitimately differs from the fault-free one).
func TestCrashDeadForeverSurvivorsTerminate(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := stencilConfig(4, proto)
		cfg.Faults = crashFaults(netsim.CrashRule{Node: 2, Epoch: 7, RestartAfter: -1})
		r, err := Run(cfg, miniStencil(64, 128, 8, 5))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !r.HasChecksum {
			t.Errorf("%v: survivors produced no checksum", proto)
		}
		if r.Total.Crashes != 1 || r.Total.Restarts != 0 {
			t.Errorf("%v: Crashes=%d Restarts=%d, want 1/0", proto, r.Total.Crashes, r.Total.Restarts)
		}
	}
}

// rejoinStencil is a stencil body safe under delayed restarts: a
// rejoined node replays iterations the survivors moved past, so nodes
// finish on different global data and only node 0 (which cannot crash)
// reports a checksum.
func rejoinStencil(rows, cols, iters int) func(*Proc) {
	return func(p *Proc) {
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
		half := func(src, dst F64Matrix) {
			for r := lo; r < hi; r++ {
				for c := 0; c < cols; c++ {
					up, down := r-1, r+1
					if up < 0 {
						up = rows - 1
					}
					if down >= rows {
						down = 0
					}
					dst.Set(r, c, (src.At(up, c)+src.At(down, c)+src.At(r, c))/3)
				}
				p.Charge(sim.Duration(cols) * 50 * sim.Nanosecond)
			}
			p.Barrier()
		}
		for it := 0; it < iters; it++ {
			half(a, b)
			half(b, a)
			p.IterationBoundary()
		}
		if me == 0 {
			p.SetResult(a.ChecksumRows(lo, hi))
		}
	}
}

// TestCrashRejoinTerminates: a node dead for a window of barriers
// (RestartAfter > 0) must be granted a restart when the window closes,
// refetch its state, and drain its remaining iterations — completing
// barriers solo after the survivors finish — without wedging teardown.
func TestCrashRejoinTerminates(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoBarI, ProtoBarU, ProtoBarS, ProtoBarM, ProtoLmwI, ProtoLmwU} {
		cfg := stencilConfig(4, proto)
		cfg.Faults = crashFaults(netsim.CrashRule{Node: 2, Epoch: 5, RestartAfter: 2})
		r, err := Run(cfg, rejoinStencil(64, 128, 6))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !r.HasChecksum {
			t.Errorf("%v: node 0 produced no checksum", proto)
		}
		if r.Total.Crashes != 1 || r.Total.Restarts != 1 {
			t.Errorf("%v: Crashes=%d Restarts=%d, want 1/1", proto, r.Total.Crashes, r.Total.Restarts)
		}
		// No blackhole assertion: survivors re-elect the dead node's homes
		// and manager roles, so ideally zero packets are even aimed at it.
		if r.Total.CheckpointBytes == 0 {
			t.Errorf("%v: no checkpoint traffic backing the restart", proto)
		}
	}
}

// lockFlagBody is the migratory-counter + flag workload from the chaos
// suite: node 0 publishes via a flag, every live node then pumps a
// lock-protected counter. perNode increments per surviving node.
func lockFlagBody(perNode int, resultAll bool) func(*Proc) {
	return func(p *Proc) {
		ctr := p.AllocF64(1)
		p.Barrier()
		if p.ID() == 0 {
			ctr.Set(0, 1)
			p.SetFlag(7)
		} else {
			p.WaitFlag(7)
			if ctr.Get(0) != 1 {
				p.n.fatal("flag wait did not deliver the setter's write")
			}
		}
		p.Barrier()
		for i := 0; i < perNode; i++ {
			p.Acquire(3)
			ctr.Set(0, ctr.Get(0)+1)
			p.Charge(20 * sim.Microsecond)
			p.Release(3)
		}
		p.Barrier()
		if resultAll || p.ID() == 0 {
			p.SetResult(uint64(ctr.Get(0)))
		}
	}
}

// TestCrashLockManagerReelection: with 4 procs, lock 3 and flag 7 are
// both managed by node 3. Killing node 3 forces flag-state adoption and
// lock-chain re-election onto node 0, token reclamation included; the
// survivors' increments must all land.
func TestCrashLockManagerReelection(t *testing.T) {
	const perNode = 10
	for _, proto := range []ProtocolKind{ProtoLmwI, ProtoLmwU} {
		// Manager dies for good at the barrier after the flag phase (epoch 1
		// is the second Barrier call; the first is seq 0): flag and lock
		// duties re-elect onto node 0; survivors do 3*perNode increments.
		cfg := lockCfg(4, proto)
		cfg.Faults = crashFaults(netsim.CrashRule{Node: 3, Epoch: 1, RestartAfter: -1})
		r, err := Run(cfg, lockFlagBody(perNode, false))
		if err != nil {
			t.Fatalf("%v dead manager: %v", proto, err)
		}
		if want := uint64(1 + 3*perNode); r.Checksum != want {
			t.Errorf("%v dead manager: counter %d, want %d", proto, r.Checksum, want)
		}
		if r.Total.LockAcquires != int64(3*perNode) {
			t.Errorf("%v dead manager: %d acquires, want %d", proto, r.Total.LockAcquires, 3*perNode)
		}

		// Manager restarts in place right before the lock phase: its
		// restored token and chain state must then serve the full loop, and
		// the run is bit-identical to fault-free (all nodes report).
		cfg = lockCfg(4, proto)
		cfg.Faults = crashFaults(netsim.CrashRule{Node: 3, Epoch: 1, RestartAfter: 0})
		r, err = Run(cfg, lockFlagBody(perNode, true))
		if err != nil {
			t.Fatalf("%v manager restart: %v", proto, err)
		}
		if want := uint64(1 + 4*perNode); r.Checksum != want {
			t.Errorf("%v manager restart: counter %d, want %d", proto, r.Checksum, want)
		}
		if r.Total.LockAcquires != int64(4*perNode) {
			t.Errorf("%v manager restart: %d acquires, want %d", proto, r.Total.LockAcquires, 4*perNode)
		}
	}
}

// TestCrashLockHolderRejoins: a non-manager participant crashes at the
// barrier before the lock phase and rejoins one barrier later, replaying
// its increments after the survivors finished theirs. Every acquire must
// still be granted (the rejoined node is demoted but fully functional as
// a requester), for the full 4*perNode total.
func TestCrashLockHolderRejoins(t *testing.T) {
	const perNode = 10
	for _, proto := range []ProtocolKind{ProtoLmwI, ProtoLmwU} {
		cfg := lockCfg(4, proto)
		cfg.Faults = crashFaults(netsim.CrashRule{Node: 2, Epoch: 1, RestartAfter: 1})
		r, err := Run(cfg, lockFlagBody(perNode, false))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if r.Total.LockAcquires != int64(4*perNode) {
			t.Errorf("%v: %d acquires, want %d", proto, r.Total.LockAcquires, 4*perNode)
		}
		if r.Total.Restarts != 1 {
			t.Errorf("%v: Restarts=%d, want 1", proto, r.Total.Restarts)
		}
	}
}

// TestCrashUnderChaos closes the PR 2 chaos-suite gap: a crash rule
// layered on the full chaos schedule (loss, duplication, reordering, a
// straggler) over the lock/flag workload. In-place restart keeps the
// result bit-identical even while the wire is misbehaving.
func TestCrashUnderChaos(t *testing.T) {
	const perNode = 10
	for _, proto := range []ProtocolKind{ProtoLmwI, ProtoLmwU} {
		for _, seed := range []int64{1, 2} {
			plan := chaosPlan(seed, false)
			plan.Crashes = []netsim.CrashRule{{Node: 3, Epoch: 1, RestartAfter: 0}}
			cfg := lockCfg(4, proto)
			cfg.Faults = plan
			r, err := Run(cfg, lockFlagBody(perNode, true))
			if err != nil {
				t.Fatalf("%v seed %d: %v", proto, seed, err)
			}
			if want := uint64(1 + 4*perNode); r.Checksum != want {
				t.Errorf("%v seed %d: counter %d, want %d", proto, seed, r.Checksum, want)
			}
			if r.Total.Retransmits == 0 {
				t.Errorf("%v seed %d: chaos schedule never fired", proto, seed)
			}
			if r.Total.Crashes != 1 || r.Total.Restarts != 1 {
				t.Errorf("%v seed %d: Crashes=%d Restarts=%d, want 1/1",
					proto, seed, r.Total.Crashes, r.Total.Restarts)
			}
		}
	}
}

// TestCrashFaultFreePathUnchanged: arming fault injection without crash
// rules must not touch the checkpoint machinery at all.
func TestCrashFaultFreePathUnchanged(t *testing.T) {
	cfg := stencilConfig(4, ProtoBarU)
	cfg.Faults = &netsim.FaultPlan{Seed: 1} // armed, but no rules at all
	r, err := Run(cfg, miniStencil(64, 128, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Total.Crashes != 0 || r.Total.Restarts != 0 ||
		r.Total.CheckpointPages != 0 || r.Total.CheckpointBytes != 0 {
		t.Fatalf("crash counters moved without crash rules: %+v", r.Total)
	}
	want := runStencil(t, 4, ProtoBarU)
	if r.Checksum != want.Checksum {
		t.Fatalf("checksum %#x, want %#x", r.Checksum, want.Checksum)
	}
}

// TestCrashDisabledZeroAlloc: with no crash plan armed, the predicates
// the hot paths now consult (nil crashPlan, nil checkpoint store) must
// not allocate.
func TestCrashDisabledZeroAlloc(t *testing.T) {
	var cp *crashPlan
	if n := testing.AllocsPerRun(100, func() {
		if cp.syncHome(3, 4, 7) != 3 {
			t.Fatal("nil-plan syncHome broke")
		}
	}); n != 0 {
		t.Fatalf("nil-plan syncHome allocates %v per call", n)
	}
}

// BenchmarkSyncHomeDisabled guards the disabled-path cost of the one
// crash predicate on the synchronization hot path.
func BenchmarkSyncHomeDisabled(b *testing.B) {
	var cp *crashPlan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cp.syncHome(i&7, 8, i) != i&7 {
			b.Fatal("nil-plan syncHome broke")
		}
	}
}
