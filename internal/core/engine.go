package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godsm/internal/cost"
	"godsm/internal/netsim"
	"godsm/internal/obs"
	"godsm/internal/sim"
	"godsm/internal/stats"
	"godsm/internal/trace"
	"godsm/internal/transport"
	"godsm/internal/vm"
)

// cluster is one simulated DSM run: kernel, interconnect, and nodes.
type cluster struct {
	cfg      Config
	cm       *cost.Model
	kern     *sim.Kernel
	net      *netsim.Net
	nodes    []*node
	mgr      *barMgr
	pmgr     protoManager
	body     func(*Proc)
	seq      bool   // ProtoSeq: synchronization nulled out
	faultsOn bool   // cfg.Faults armed: reliability layer active
	rt       bool   // cfg.Transport set: realtime kernel, real delivery
	doneSeen []bool // teardown: nodes whose compute body has finished
	doneLeft int    // teardown: nodes still running

	// cp and ckpt arm crash-stop recovery when the fault plan carries
	// CrashRules: the shared failure schedule (the deterministic stand-in
	// for a membership service) and the stable checkpoint store every node
	// writes at barrier release. Both nil otherwise.
	cp   *crashPlan
	ckpt *ckptStore

	// sinks is the fan-out list every trace event goes to: cfg.Trace (if
	// any) plus cfg.Sinks. Empty means tracing is off.
	sinks []trace.Sink
	// obsMu serializes cross-node observers (sinks, timeline) under a
	// real transport, where nodes emit concurrently. Unused in sim mode.
	obsMu sync.Mutex
	// tc collects per-epoch statistics when cfg.Timeline is set.
	tc *obs.TimelineCollector
}

// node is one DSM process: an address space, a protocol instance, and a
// compute/service process pair sharing state (safe: the sim kernel runs
// exactly one process at a time).
type node struct {
	id      int
	clu     *cluster
	as      *vm.AddressSpace
	proto   protocol
	compute *sim.Proc
	service *sim.Proc
	rel     *reliability // retransmit/dedup state; nil when faults are off

	// --- time accounting ---
	pendingApp   sim.Duration // charged, unflushed application compute
	stressFactor float64      // VM-stress multiplier for this epoch's app time
	stolen       sim.Duration // service handler time to inject into compute
	bd           stats.Breakdown
	ctr          stats.Counters
	protChanges  int // protection changes this epoch (stress input)

	// --- observability (see internal/obs) ---
	ps       *obs.PageStats // per-page attribution; nil when disabled
	epochCtr stats.Counters // counters as of the last barrier completion
	epochBd  stats.Breakdown
	epochT   sim.Time

	// --- measurement window ---
	measuring bool
	windowed  bool // a window was opened at least once
	mStart    sim.Time
	mStartBd  stats.Breakdown
	mStartCtr stats.Counters
	mStartTr  netsim.Traffic
	mStartFs  netsim.FaultStats
	mStop     sim.Time
	mStopBd   stats.Breakdown
	mStopCtr  stats.Counters
	mStopTr   netsim.Traffic
	mStopFs   netsim.FaultStats

	// --- barrier state ---
	barSeq  int
	siteIdx int // barrier call-site index within the current iteration
	iter    int

	// --- update-flush banking (lmw-u consumer banking lives in lmwState;
	// this is the bar-u in-barrier wait machinery) ---
	bank        map[int][]diffMsg // epoch -> banked update diffs
	bankBatches map[int]int       // epoch -> flush batches received
	expUpdates  int               // batches expected this epoch (from release)
	waitingUpd  bool
	waitEpoch   int
	waitSeq     int

	// writeProbe, when non-nil, observes every store (even to writable
	// pages). bar-m's divergence checker uses it to detect unpredicted
	// steady-state writes that real hardware would let slip through.
	writeProbe func(pg vm.PageID)
	// check is cfg.Check cached per node: the consistency oracle's store
	// and epoch hooks. Nil (the default) keeps the store hot path to a
	// single pointer test.
	check Checker

	// --- crash-stop state ---
	crashRule *netsim.CrashRule // this node's scheduled crash; nil = survivor
	crashed   bool              // the crash epoch has been reached

	allocOff int // shared-segment bump allocator
	result   uint64
	hasRes   bool
}

// Run executes body on cfg.Procs simulated nodes under cfg.Protocol and
// returns the measured statistics. body runs once per node (SPMD); all
// nodes must perform identical Alloc and Barrier sequences.
func Run(cfg Config, body func(*Proc)) (*Report, error) {
	return RunContext(context.Background(), cfg, body)
}

// RunContext is Run with cancellation: when ctx is cancelled mid-run the
// simulation stops at its next event and ctx's error is returned. Like a
// failed run, a cancelled one unwinds its simulated processes before it
// returns (sim.Kernel.Run), so aborted runs leave nothing behind in a
// long-lived process.
func RunContext(ctx context.Context, cfg Config, body func(*Proc)) (*Report, error) {
	start := time.Now()
	rep, err := runContext(ctx, cfg, body)
	if reg := cfg.Metrics; reg != nil {
		if err != nil {
			recordRunError(reg, cfg.Protocol)
		} else {
			recordRunMetrics(reg, rep, time.Since(start))
		}
	}
	return rep, err
}

func runContext(ctx context.Context, cfg Config, body func(*Proc)) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Protocol == ProtoSeq && cfg.Procs != 1 {
		return nil, fmt.Errorf("core: ProtoSeq requires Procs=1, got %d", cfg.Procs)
	}
	rt := cfg.Transport != ""
	if rt {
		if cfg.Transport == transport.KindUDP && cfg.Faults == nil {
			// Real datagrams can be lost or reordered even without injected
			// faults; arm the reliability layer with an empty plan so
			// retransmission and dedup recover socket-level misbehaviour.
			cfg.Faults = &netsim.FaultPlan{}
		}
		if cfg.Check != nil {
			cfg.Check = &lockedChecker{inner: cfg.Check}
		}
	}
	clu := &cluster{
		cfg:  cfg,
		cm:   cfg.Model,
		body: body,
		seq:  cfg.Protocol == ProtoSeq,
		rt:   rt,
	}
	if rt {
		clu.kern = sim.NewRealtimeKernel()
	} else {
		clu.kern = sim.NewKernel()
	}
	clu.net = netsim.New(clu.kern, cfg.Procs, clu.cm)
	clu.net.SetMetrics(cfg.Metrics)
	if cfg.EncodeInFlight && !rt {
		clu.net.EncodeInFlight()
	}
	clu.mgr = newBarMgr(clu)
	if cfg.Trace != nil {
		clu.sinks = append(clu.sinks, cfg.Trace)
	}
	clu.sinks = append(clu.sinks, cfg.Sinks...)
	if cfg.Timeline {
		clu.tc = obs.NewTimelineCollector(cfg.Procs)
	}
	if cfg.Faults != nil {
		clu.faultsOn = true
		clu.doneSeen = make([]bool, cfg.Procs)
		clu.doneLeft = cfg.Procs
		clu.net.SetFaults(cfg.Faults)
		if len(clu.sinks) > 0 {
			clu.net.OnFault = clu.emitFault
		}
	}
	for i := 0; i < cfg.Procs; i++ {
		n := &node{
			id:           i,
			clu:          clu,
			as:           vm.NewAddressSpace(cfg.SegmentBytes, clu.cm.PageSize),
			stressFactor: 1,
			bank:         make(map[int][]diffMsg),
			bankBatches:  make(map[int]int),
		}
		if clu.faultsOn {
			n.rel = newReliability()
		}
		if cfg.PageStats {
			n.ps = obs.NewPageStats(n.as.NumPages())
		}
		n.check = cfg.Check
		if clu.seq {
			for pg := 0; pg < n.as.NumPages(); pg++ {
				n.as.SetProt(vm.PageID(pg), vm.ReadWrite)
			}
		}
		clu.nodes = append(clu.nodes, n)
	}
	// Large segments are mapping-backed (see vm.NewAddressSpace); return
	// them to the OS once the run — report included — is over. Nothing may
	// retain segment memory past Run: the Checker contract reads the space
	// synchronously, and the Report carries only derived statistics.
	defer func() {
		for _, n := range clu.nodes {
			n.as.Release()
		}
	}()
	if cfg.NetHook != nil {
		// Faults are armed; hand the control plane its live handle.
		cfg.NetHook(clu.net)
	}
	if clu.faultsOn && len(cfg.Faults.Crashes) > 0 {
		clu.cp = newCrashPlan(cfg.Procs, cfg.Faults)
		clu.ckpt = newCkptStore(cfg.Procs, clu.nodes[0].as.NumPages())
		for _, n := range clu.nodes {
			n.crashRule = clu.cp.rule[n.id]
		}
		// A node that dies for good never reports done; retire it from the
		// teardown count up front so the survivors' done protocol completes.
		for id, r := range clu.cp.rule {
			if r != nil && !r.Restarts() {
				clu.doneSeen[id] = true
				clu.doneLeft--
			}
		}
	}
	clu.pmgr = newProtoManager(clu)
	for _, n := range clu.nodes {
		n.proto = newProtocol(n)
	}
	for _, n := range clu.nodes {
		n := n
		n.compute = clu.net.Bind(n.id, netsim.PortCompute, fmt.Sprintf("compute%d", n.id), n.computeBody)
		n.service = clu.net.Bind(n.id, netsim.PortService, fmt.Sprintf("service%d", n.id), n.serviceBody)
	}
	if rt {
		for _, n := range clu.nodes {
			// One exclusive-group mutex per node: compute and service share
			// protocol state lock-free, exactly as the DES kernel's
			// one-runner-at-a-time scheduling let them.
			mu := new(sync.Mutex)
			n.compute.SetExclusive(mu)
			n.service.SetExclusive(mu)
		}
		tr, err := transport.New(cfg.Transport, cfg.Procs, netsim.NumPorts)
		if err != nil {
			return nil, err
		}
		tr = transport.Instrument(tr, cfg.Transport, cfg.Metrics)
		defer tr.Close()
		if err := clu.net.SetTransport(tr); err != nil {
			return nil, err
		}
	}
	var kerr error
	if dctx := ctx.Done(); dctx != nil {
		// Watch for cancellation on a side goroutine; the kernel polls the
		// flag between events. done keeps the watcher from outliving the
		// run (and from holding ctx alive), a body's panic passing through
		// Run included.
		done := make(chan struct{})
		go func() {
			select {
			case <-dctx:
				clu.kern.Cancel(ctx.Err())
			case <-done:
			}
		}()
		kerr = func() error {
			defer close(done)
			return clu.kern.Run()
		}()
	} else {
		kerr = clu.kern.Run()
	}
	if kerr != nil {
		return nil, kerr
	}
	if cfg.Check != nil {
		if err := cfg.Check.Finish(); err != nil {
			return nil, err
		}
	}
	return clu.report()
}

func (n *node) computeBody(p *sim.Proc) {
	if n.runBody() {
		// Crash-stop death: the body was unwound at the crash epoch. The
		// service keeps draining (and discarding) stale deliveries until
		// this local shutdown, which the same-node fast path delivers even
		// though the node is marked down.
		n.clu.net.Send(p, n.id, netsim.PortService, &netsim.Packet{Kind: mkShutdown})
		return
	}
	if n.measuring || !n.windowed {
		// Body never closed (or never opened) a window; fall back to
		// measuring the whole run. The zero-valued start snapshot is
		// exactly the state at time zero.
		n.windowed = true
		n.snapshotStop()
	}
	if n.clu.faultsOn {
		// Reliable teardown: a peer whose final barrier release was lost
		// recovers by retransmitting its arrival to the manager, so no
		// service may die while any compute body is still running. Report
		// done to the master and shut down only on its release (both
		// fault-exempt control-plane messages; see mkDone).
		n.clu.net.Send(p, 0, netsim.PortService,
			&netsim.Packet{Kind: mkDone, NoFault: true, Data: &doneMsg{From: n.id}})
		for {
			pkt := p.Recv().Payload.(*netsim.Packet)
			if pkt.Kind == mkDoneRelease {
				break
			}
			// Absorb retry alarms and late duplicate replies still in
			// flight; everything this node asked for is already settled.
			n.filterCompute(pkt)
		}
	}
	n.clu.net.Send(p, n.id, netsim.PortService, &netsim.Packet{Kind: mkShutdown})
}

// runBody runs the application body plus the quiescing final barrier (the
// final barrier guarantees no request can still be headed for any
// service). It reports whether the node died mid-run: a crash rule with no
// restart unwinds the whole body via errCrashStop.
func (n *node) runBody() (died bool) {
	if n.crashRule != nil && !n.crashRule.Restarts() {
		defer func() {
			if r := recover(); r != nil {
				if r != errCrashStop {
					panic(r)
				}
				died = true
			}
		}()
	}
	n.clu.body(&Proc{n: n})
	n.barrier(nil)
	return false
}

// handleDone runs on the master's service: once every compute body has
// reported done, release them all to tear their services down.
func (c *cluster) handleDone(n0 *node, pkt *netsim.Packet) {
	d := pkt.Data.(*doneMsg)
	if c.doneSeen[d.From] {
		return
	}
	c.doneSeen[d.From] = true
	c.doneLeft--
	if c.cp != nil {
		// A restarted node runs its missed iterations after the survivors
		// finish; their dones shrink the expected arrival count, which may
		// complete a barrier episode already pending.
		c.mgr.maybeRelease(n0)
	}
	if c.doneLeft > 0 {
		return
	}
	for i := 0; i < c.cfg.Procs; i++ {
		if i != n0.id {
			n0.service.Advance(c.cm.SendCPU)
		}
		c.net.Send(n0.service, i, netsim.PortCompute,
			&netsim.Packet{Kind: mkDoneRelease, Reply: true, NoFault: true})
	}
}

func (n *node) serviceBody(p *sim.Proc) {
	cm := n.clu.cm
	for {
		m := p.Recv()
		pkt := m.Payload.(*netsim.Packet)
		if pkt.Kind == mkShutdown {
			return
		}
		if n.crashed && n.clu.net.NodeDown(n.id) {
			// Dead window: the packet was in flight before the sender could
			// learn of the crash. The node's memory is gone; discard it.
			continue
		}
		start := p.Now()
		if pkt.FromNode != n.id {
			p.Advance(cm.SigioDispatch + cm.RecvCPU)
		}
		switch pkt.Kind {
		case mkBarArrive:
			n.clu.mgr.handle(n, pkt)
		case mkBarBundle:
			n.handleBarBundle(pkt)
		case mkUpdateFlush:
			n.handleUpdateFlush(pkt)
		case mkDone:
			n.clu.handleDone(n, pkt)
		default:
			// The barrier manager and the flush banker above do their own
			// replay suppression; everything else gets the generic dedup.
			if !n.dedupServe(pkt) {
				n.proto.handleRequest(pkt)
			}
		}
		d := sim.Duration(p.Now() - start)
		n.bd.Sigio += d
		n.stolen += d
	}
}

// --- compute-path accounting -------------------------------------------

// charge accumulates application compute time (flushed lazily).
func (n *node) charge(d sim.Duration) { n.pendingApp += d }

// flush converts pending application time (inflated by the current VM
// stress factor and any injected straggler slowdown) and stolen service
// time into simulated elapsed time.
func (n *node) flush() {
	if n.pendingApp > 0 {
		d := n.pendingApp
		if n.stressFactor != 1 {
			d = sim.Duration(float64(d) * n.stressFactor)
		}
		if n.clu.faultsOn {
			if f := n.clu.net.StragglerFactor(n.id); f > 1 {
				d = sim.Duration(float64(d) * f)
			}
		}
		n.bd.App += d
		n.pendingApp = 0
		n.compute.Advance(d)
	}
	if n.stolen > 0 {
		d := n.stolen
		n.stolen = 0
		n.compute.Advance(d)
	}
}

// osCharge advances the compute clock by an operating-system cost.
func (n *node) osCharge(d sim.Duration) {
	if d <= 0 {
		return
	}
	n.bd.OS += d
	n.compute.Advance(d)
}

// mprotect changes a page's protection, charging the (stress-dependent)
// syscall cost. No-op protection changes are skipped, as a real runtime
// would skip the syscall.
func (n *node) mprotect(pg vm.PageID, pr vm.Prot) {
	if n.as.Prot(pg) == pr {
		return
	}
	n.as.SetProt(pg, pr)
	n.protChanges++
	n.ctr.Mprotects++
	n.trc(trace.Mprotect, int(pg), int64(pr))
	n.osCharge(n.clu.cm.MprotectCost(n.protChanges))
}

// mprotectSvc is mprotect on the service path (CVM's handlers change
// protections from SIGIO context, e.g. when installing a migrated page).
func (n *node) mprotectSvc(pg vm.PageID, pr vm.Prot) {
	if n.as.Prot(pg) == pr {
		return
	}
	n.as.SetProt(pg, pr)
	n.protChanges++
	n.ctr.Mprotects++
	n.trcSvc(trace.Mprotect, int(pg), int64(pr))
	n.service.Advance(n.clu.cm.MprotectCost(n.protChanges))
}

// segv charges one SIGSEGV-to-user-handler dispatch.
func (n *node) segv() {
	n.ctr.Segvs++
	n.osCharge(n.clu.cm.SegvDispatch)
}

// trc records a trace event stamped with the compute clock.
func (n *node) trc(kind trace.Kind, page int, arg int64) {
	n.emitTrace(n.compute.Now(), kind, page, arg)
}

// trcSvc records a trace event stamped with the service clock.
func (n *node) trcSvc(kind trace.Kind, page int, arg int64) {
	n.emitTrace(n.service.Now(), kind, page, arg)
}

// emitTrace fans one event out to every attached sink (the bounded Log
// and any streaming exporters). Events reach sinks in global virtual-time
// order because the simulation runs one process at a time.
func (n *node) emitTrace(t sim.Time, kind trace.Kind, page int, arg int64) {
	sinks := n.clu.sinks
	if len(sinks) == 0 {
		return
	}
	e := trace.Event{T: t, Node: n.id, Kind: kind, Page: page, Arg: arg}
	if n.clu.rt {
		n.clu.obsMu.Lock()
		defer n.clu.obsMu.Unlock()
	}
	for _, s := range sinks {
		s.Emit(e)
	}
}

// emitFault forwards one injected network fault to the trace sinks,
// attributed to the sending node.
func (c *cluster) emitFault(t sim.Time, from, to, kind int, class netsim.FaultClass) {
	var k trace.Kind
	switch class {
	case netsim.FaultDrop:
		k = trace.NetDrop
	case netsim.FaultDup:
		k = trace.NetDup
	default:
		k = trace.NetDelay
	}
	e := trace.Event{T: t, Node: from, Kind: k, Page: -1, Arg: int64(kind)}
	if c.rt {
		c.obsMu.Lock()
		defer c.obsMu.Unlock()
	}
	for _, s := range c.sinks {
		s.Emit(e)
	}
}

// makeTwin snapshots a page for later diffing, with accounting and trace.
func (n *node) makeTwin(pg vm.PageID) {
	n.as.MakeTwin(pg)
	n.ctr.Twins++
	n.osCharge(n.clu.cm.CopyCost(n.as.PageSize()))
	n.trc(trace.Twin, int(pg), 0)
}

// fatal aborts the whole simulation. Used for protocol invariant
// violations, e.g. bar-m divergence ("complain loudly and exit").
func (n *node) fatal(format string, args ...any) {
	n.compute.Fail(fmt.Errorf("node %d: %s", n.id, fmt.Sprintf(format, args...)))
}

// --- fault entry points (called by the typed accessors) -----------------

func (n *node) readFault(pg vm.PageID) {
	n.flush()
	n.segv()
	n.ps.Fault(pg)
	n.trc(trace.Segv, int(pg), 0)
	n.proto.readFault(pg)
	if n.as.Prot(pg) == vm.None {
		n.fatal("read fault on page %d not resolved by %s", pg, n.clu.cfg.Protocol)
	}
}

func (n *node) writeFault(pg vm.PageID) {
	n.flush()
	n.segv()
	n.ps.Fault(pg)
	n.trc(trace.Segv, int(pg), 1)
	n.proto.writeFault(pg)
	if n.as.Prot(pg) != vm.ReadWrite {
		n.fatal("write fault on page %d not resolved by %s", pg, n.clu.cfg.Protocol)
	}
}

// --- compute-path messaging ---------------------------------------------

// sendRequest transmits a request to dst's service port. The caller pairs
// it with awaitReply (possibly batched: send k requests, await k replies).
// Under fault injection the request is tracked and retransmitted until its
// reply arrives.
func (n *node) sendRequest(dst int, kind, size int, data any) {
	n.osCharge(n.clu.cm.SendCPU)
	pkt := &netsim.Packet{Kind: kind, Size: size, Data: data}
	n.trackRequest(dst, pkt)
	n.clu.net.Send(n.compute, dst, netsim.PortService, pkt)
}

// sendFlush transmits an unacknowledged flush (update) message. Loss is
// injected by the netsim fault plan (Config.Faults): a lost flush harms
// only performance, so flushes are never tracked or retransmitted.
func (n *node) sendFlush(dst int, kind, size int, data any) {
	n.osCharge(n.clu.cm.SendCPU)
	n.clu.net.Send(n.compute, dst, netsim.PortService, &netsim.Packet{Kind: kind, Size: size, Data: data})
}

// awaitReply blocks until the next reply packet arrives at the compute
// port, absorbing service time stolen during the wait and dropping stale
// timeout alarms.
func (n *node) awaitReply() *netsim.Packet {
	start := n.compute.Now()
	for {
		m := n.compute.Recv()
		pkt := m.Payload.(*netsim.Packet)
		if pkt.Kind == mkUpdateTimeout {
			continue // stale alarm from an earlier satisfied wait
		}
		if n.filterCompute(pkt) {
			continue // retry alarm, ack, or duplicate reply
		}
		n.absorbWait(start)
		if pkt.FromNode != n.id {
			n.osCharge(n.clu.cm.RecvCPU)
		}
		return pkt
	}
}

// absorbWait discounts stolen service time that overlapped a wait that
// started at start: handler work done while the compute side was idle does
// not extend the critical path.
func (n *node) absorbWait(start sim.Time) {
	w := sim.Duration(n.compute.Now() - start)
	if n.stolen <= w {
		n.stolen = 0
	} else {
		n.stolen -= w
	}
}

// serviceReply sends a reply from the service path back to a requester.
func (n *node) serviceReply(req *netsim.Packet, kind, size int, data any) {
	n.replyFrom(n.service, req, kind, size, data)
}

// replyFrom sends a reply to a requester from the given execution context
// (service normally; compute when draining requests queued behind a home
// migration install).
func (n *node) replyFrom(p *sim.Proc, req *netsim.Packet, kind, size int, data any) {
	if req.FromNode != n.id {
		p.Advance(n.clu.cm.SendCPU)
	}
	pkt := &netsim.Packet{Kind: kind, Size: size, Reply: true, Rid: req.Rid, Data: data}
	n.recordReply(req, req.FromNode, req.FromPort, pkt)
	n.clu.net.Send(p, req.FromNode, req.FromPort, pkt)
}

// --- barrier --------------------------------------------------------------

// barrier performs one barrier episode, optionally carrying a reduction.
func (n *node) barrier(red *redContrib) *redResult {
	n.flush()
	if n.clu.seq {
		n.ctr.Barriers++
		n.sampleEpoch()
		if n.check != nil {
			n.check.Epoch(n.id, n.as)
		}
		return reduceLocal(red)
	}
	site := n.siteIdx
	n.siteIdx++
	seq := n.barSeq
	n.barSeq++
	payload, psize := n.proto.preBarrier(site)
	n.stressFactor = n.clu.cm.AppStress(n.protChanges)
	n.protChanges = 0
	arr := &barArrive{From: n.id, Site: site, Seq: seq, Proto: payload, Red: red}
	n.trc(trace.BarrierArrive, -1, int64(seq))
	if n.clu.faultsOn {
		// Epoch advances at barrier entry: while waiting for barrier seq,
		// the node is in epoch seq+1 for fault-rule windows.
		n.clu.net.SetEpoch(n.id, n.barSeq)
	}
	n.sendRequest(0, mkBarArrive, bytesBarHeader+psize+redSize(red), arr)
	rel := n.awaitRelease(seq)
	n.trc(trace.BarrierRelease, -1, int64(seq))
	if n.clu.ckpt != nil {
		if r := n.crashRule; r != nil && !n.crashed && seq == r.Epoch {
			// The dying node checkpoints before applying the release: a
			// restart must replay the release (RestartAfter 0) or discard it
			// (RestartAfter > 0), never double-apply it.
			n.ckptWrite(seq)
			if r.RestartAfter != 0 {
				return n.crashStop(seq, rel)
			}
			n.crashRestartInPlace(seq)
		}
		n.crashBookkeep(seq)
	}
	n.proto.onRelease(site, rel.Proto)
	n.proto.postBarrier(site)
	if n.clu.ckpt != nil {
		// Survivors checkpoint the settled post-release state, so a later
		// rejoiner reading this epoch's entry sees the release applied.
		n.ckptCharge(n.ckptWrite(seq))
	}
	n.ctr.Barriers++
	n.sampleEpoch()
	if n.check != nil {
		// The oracle samples after postBarrier: updates are consumed, stale
		// copies invalidated, migrated homes installed — every readable page
		// is supposed to be coherent right here.
		n.check.Epoch(n.id, n.as)
	}
	return rel.Red
}

// sampleEpoch records this node's counter and breakdown deltas for the
// epoch that just ended at a barrier completion. Wait is the residual, the
// same derivation the end-of-run report uses.
func (n *node) sampleEpoch() {
	tc := n.clu.tc
	if tc == nil {
		return
	}
	now := n.compute.Now()
	ctr := n.ctr
	tr := n.clu.net.Traffic[n.id]
	ctr.Messages, ctr.Replies, ctr.DataBytes = tr.Messages, tr.Replies, tr.Bytes
	if fs := n.clu.net.FaultStats; fs != nil {
		f := fs[n.id]
		ctr.NetDrops, ctr.NetDups, ctr.NetDelays = f.Drops, f.Dups, f.Delays
		ctr.NetBlackholed = f.Blackholed
	}
	d := ctr.Sub(n.epochCtr)
	bd := stats.Breakdown{
		App:   n.bd.App - n.epochBd.App,
		OS:    n.bd.OS - n.epochBd.OS,
		Sigio: n.bd.Sigio - n.epochBd.Sigio,
	}
	bd.Wait = sim.Duration(now-n.epochT) - bd.App - bd.OS - bd.Sigio
	if bd.Wait < 0 {
		bd.Wait = 0
	}
	if n.clu.rt {
		n.clu.obsMu.Lock()
		tc.Record(n.id, n.epochT, now, d, bd)
		n.clu.obsMu.Unlock()
	} else {
		tc.Record(n.id, n.epochT, now, d, bd)
	}
	n.epochCtr = ctr
	n.epochBd = n.bd
	n.epochT = now
}

func (n *node) awaitRelease(seq int) *barRelease {
	for {
		pkt := n.awaitReply()
		if pkt.Kind != mkBarRelease {
			n.fatal("expected barrier release, got kind %d", pkt.Kind)
		}
		rel := pkt.Data.(*barRelease)
		if rel.Seq != seq {
			n.fatal("barrier release seq %d, want %d", rel.Seq, seq)
		}
		return rel
	}
}

// iterationBoundary marks the end of one outer application iteration: the
// barrier call-site counter resets and the protocol may change phase
// (home migration after iteration 1, overdrive after LearnIters).
func (n *node) iterationBoundary() {
	n.iter++
	n.siteIdx = 0
	if !n.clu.seq {
		n.proto.iterBoundary()
	}
}

// --- update-flush banking (bar-u / bar-s / bar-m consumers) -------------

func (n *node) handleUpdateFlush(pkt *netsim.Packet) {
	uf := pkt.Data.(*updateFlush)
	if n.dupFlush(pkt.FromNode, uf.Epoch) {
		return
	}
	if rel := n.rel; rel != nil && uf.Epoch <= rel.updEpochDone {
		// The flush was delayed past its epoch's consumption (the consumer
		// timed out and fell back to invalidation); banking it now would
		// pair diffs with no version news. Count it as pure overhead.
		n.ctr.UpdatesUnneeded += int64(len(uf.Diffs))
		return
	}
	n.bank[uf.Epoch] = append(n.bank[uf.Epoch], uf.Diffs...)
	n.bankBatches[uf.Epoch]++
	if n.waitingUpd && n.waitEpoch == uf.Epoch && n.bankBatches[uf.Epoch] >= n.expUpdates {
		n.waitingUpd = false
		n.clu.net.Send(n.service, n.id, netsim.PortCompute,
			&netsim.Packet{Kind: mkUpdatesReady, Data: &updatesReady{Epoch: uf.Epoch}})
	}
}

// waitUpdates blocks (inside the barrier, per the paper) until the
// expected number of update flush batches for epoch has arrived, or until
// the loss timeout fires. It reports whether all batches arrived.
func (n *node) waitUpdates(epoch, expected int) bool {
	n.expUpdates = expected
	if n.bankBatches[epoch] >= expected {
		return true
	}
	n.waitingUpd = true
	n.waitEpoch = epoch
	lossy := n.clu.faultsOn
	if lossy {
		n.waitSeq++
		n.compute.Send(n.compute.ID(), n.clu.cfg.UpdateWaitTimeout, &netsim.Packet{
			Kind: mkUpdateTimeout, FromNode: n.id, Data: &updateTimeout{WaitSeq: n.waitSeq},
		})
	}
	start := n.compute.Now()
	for {
		m := n.compute.Recv()
		pkt := m.Payload.(*netsim.Packet)
		switch pkt.Kind {
		case mkUpdatesReady:
			if pkt.Data.(*updatesReady).Epoch != epoch {
				continue
			}
			n.absorbWait(start)
			return true
		case mkUpdateTimeout:
			if !lossy || pkt.Data.(*updateTimeout).WaitSeq != n.waitSeq {
				continue // stale alarm
			}
			n.waitingUpd = false
			n.absorbWait(start)
			return false
		default:
			if n.filterCompute(pkt) {
				continue // retry alarm, ack, or duplicate reply
			}
			n.fatal("unexpected packet kind %d while waiting for updates", pkt.Kind)
		}
	}
}

// takeBankedUpdates removes and returns epoch's banked update diffs.
func (n *node) takeBankedUpdates(epoch int) []diffMsg {
	if rel := n.rel; rel != nil && epoch > rel.updEpochDone {
		rel.updEpochDone = epoch
	}
	d := n.bank[epoch]
	delete(n.bank, epoch)
	delete(n.bankBatches, epoch)
	return d
}

// --- measurement ----------------------------------------------------------

func (n *node) snapshotStart() {
	n.measuring = true
	n.windowed = true
	n.mStart = n.compute.Now()
	n.mStartBd = n.bd
	n.mStartCtr = n.ctr
	n.mStartTr = n.clu.net.Traffic[n.id]
	if fs := n.clu.net.FaultStats; fs != nil {
		n.mStartFs = fs[n.id]
	}
}

func (n *node) snapshotStop() {
	n.measuring = false
	n.mStop = n.compute.Now()
	n.mStopBd = n.bd
	n.mStopCtr = n.ctr
	n.mStopTr = n.clu.net.Traffic[n.id]
	if fs := n.clu.net.FaultStats; fs != nil {
		n.mStopFs = fs[n.id]
	}
}

// report assembles the run's statistics from the measurement windows.
func (c *cluster) report() (*Report, error) {
	r := &Report{
		Protocol: c.cfg.Protocol.String(),
		Procs:    c.cfg.Procs,
		Timeline: c.tc.Build(),
	}
	if c.cfg.PageStats {
		merged := obs.NewPageStats(c.nodes[0].as.NumPages())
		for _, n := range c.nodes {
			merged.Merge(n.ps)
		}
		r.PageStats = merged
	}
	for i, n := range c.nodes {
		if !n.windowed {
			return nil, fmt.Errorf("core: node %d has no measurement window", n.id)
		}
		elapsed := sim.Duration(n.mStop - n.mStart)
		if elapsed > r.Elapsed {
			r.Elapsed = elapsed
		}
		ctr := n.mStopCtr.Sub(n.mStartCtr)
		tr := n.mStopTr.Sub(n.mStartTr)
		ctr.Messages = tr.Messages
		ctr.Replies = tr.Replies
		ctr.DataBytes = tr.Bytes
		fs := n.mStopFs.Sub(n.mStartFs)
		ctr.NetDrops, ctr.NetDups, ctr.NetDelays = fs.Drops, fs.Dups, fs.Delays
		ctr.NetBlackholed = fs.Blackholed
		// Crash-recovery counters are whole-run, not windowed: a crash is
		// a discrete scheduled event (often during warmup) and checkpoint
		// traffic starts at the first barrier, so a measurement window
		// would hide both.
		ctr.Crashes = n.ctr.Crashes
		ctr.Restarts = n.ctr.Restarts
		ctr.CheckpointPages = n.ctr.CheckpointPages
		ctr.CheckpointBytes = n.ctr.CheckpointBytes
		bd := stats.Breakdown{
			App:   n.mStopBd.App - n.mStartBd.App,
			OS:    n.mStopBd.OS - n.mStartBd.OS,
			Sigio: n.mStopBd.Sigio - n.mStartBd.Sigio,
		}
		bd.Wait = elapsed - bd.App - bd.OS - bd.Sigio
		if bd.Wait < 0 {
			bd.Wait = 0
		}
		r.PerNode = append(r.PerNode, ctr)
		r.Breakdowns = append(r.Breakdowns, bd)
		r.Total.Add(ctr)
		r.BreakdownSum.Add(bd)
		if n.hasRes {
			if !r.HasChecksum {
				r.Checksum, r.HasChecksum = n.result, true
			} else if r.Checksum != n.result {
				return nil, fmt.Errorf("core: checksum mismatch: node %d has %#x, node 0 has %#x", i, n.result, r.Checksum)
			}
		}
	}
	// Whole-run, not windowed: framing overhead is a property of the
	// transport, not the measured interval, and senders are quiescent by
	// the time all procs have returned.
	for _, fb := range c.net.FrameBytes {
		r.FrameBytes += fb
	}
	return r, nil
}
