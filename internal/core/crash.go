package core

import (
	"fmt"
	"sort"
	"sync"

	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/trace"
	"godsm/internal/vm"
	"godsm/internal/wire"
)

// Crash-stop fault tolerance. A netsim.CrashRule kills node N when it
// completes barrier Epoch — a barrier-consistent cut: every interval and
// home flush through that epoch is cluster-wide at the release, no
// acquire is in flight at a barrier, and the dying node holds nothing the
// survivors cannot reconstruct from the checkpoint store.
//
// Three in-process structures model the infrastructure a real deployment
// would place outside the cluster:
//
//   - crashPlan: the failure schedule, derived from the FaultPlan every
//     node already shares. Real systems learn deaths from a membership
//     service; here the plan is the membership service, which keeps
//     detection deterministic under the discrete-event kernel. The
//     reliability layer's retransmit escalation (reroute) remains as the
//     online detector for requests caught in flight.
//   - ckptStore: stable storage. At every barrier release each node
//     snapshots its recoverable state (authoritative home pages under the
//     bar family, interval logs and own diffs under lmw, flag state at
//     managers) before any yield, so a reader polling awaitEpoch observes
//     a complete epoch-E checkpoint.
//   - the cluster home map (ckptStore.home): the manager's authoritative
//     page-home assignment, updated at migration and at crash
//     re-election, read by restarting nodes.

// crashPlan is the precomputed, cluster-shared view of the crash
// schedule. It is immutable after newCrashPlan, so every node may consult
// it without locking; liveness at a given epoch is a pure function of the
// plan, which is what keeps re-election deterministic.
type crashPlan struct {
	rule      []*netsim.CrashRule // per node; nil = never crashes
	numCrash  int
	numGone   int // rules that never restart
	anyImmRst bool
}

func newCrashPlan(procs int, plan *netsim.FaultPlan) *crashPlan {
	cp := &crashPlan{rule: make([]*netsim.CrashRule, procs)}
	for i := range plan.Crashes {
		r := &plan.Crashes[i]
		cp.rule[r.Node] = r
		cp.numCrash++
		if !r.Restarts() {
			cp.numGone++
		} else if r.RestartAfter == 0 {
			cp.anyImmRst = true
		}
	}
	return cp
}

// deadAt reports whether node has crashed by the completion of barrier
// seq (monotone: a restarted node still counts as having died — its
// re-elected home roles are never returned).
func (cp *crashPlan) deadAt(node, seq int) bool {
	r := cp.rule[node]
	return r != nil && seq >= r.Epoch
}

// absentAt reports whether node misses barrier seq entirely: it neither
// arrives nor can receive the release. A node crashing at Epoch still
// arrives at Epoch; with RestartAfter=0 it restarts in place and misses
// nothing; with RestartAfter=R>0 it misses (Epoch, Epoch+R]; with no
// restart it misses everything after Epoch.
func (cp *crashPlan) absentAt(node, seq int) bool {
	r := cp.rule[node]
	if r == nil || seq <= r.Epoch {
		return false
	}
	return !r.Restarts() || seq <= r.Epoch+r.RestartAfter
}

// missingAt counts nodes absent from barrier seq.
func (cp *crashPlan) missingAt(seq int) int {
	m := 0
	for n := range cp.rule {
		if cp.absentAt(n, seq) {
			m++
		}
	}
	return m
}

// reelectAt reports whether node's home roles and manager duties are
// forfeited at the completion of barrier seq: it died there and does not
// restart in place. (An immediate restart — RestartAfter 0 — keeps its
// roles and restores them from its own checkpoint.)
func (cp *crashPlan) reelectAt(node, seq int) bool {
	r := cp.rule[node]
	return r != nil && r.Epoch == seq && r.RestartAfter != 0
}

// demoted reports whether node has permanently lost its home/manager
// roles by barrier seq.
func (cp *crashPlan) demoted(node, seq int) bool {
	r := cp.rule[node]
	return r != nil && seq >= r.Epoch && r.RestartAfter != 0
}

// syncHome maps a synchronization object id (lock or flag) to its
// manager as of barrier seq: the first node in cyclic order from the
// static id%procs that has not been demoted. With no crash rules this is
// exactly the static id%procs.
func (cp *crashPlan) syncHome(id, procs, seq int) int {
	base := id % procs
	if cp == nil {
		return base
	}
	for k := 0; k < procs; k++ {
		n := (base + k) % procs
		if !cp.demoted(n, seq) {
			return n
		}
	}
	return base
}

// nextHome returns the first never-demoted node in cyclic order after
// old, for deterministic home re-election.
func (cp *crashPlan) nextHome(old, procs, seq int) int {
	for k := 1; k <= procs; k++ {
		n := (old + k) % procs
		if !cp.demoted(n, seq) {
			return n
		}
	}
	return old
}

// validateCrashes rejects crash schedules the recovery machinery cannot
// honor. Returned errors name the offending rule.
func validateCrashes(cfg *Config) error {
	plan := cfg.Faults
	if plan == nil || len(plan.Crashes) == 0 {
		return nil
	}
	if cfg.Protocol == ProtoSeq {
		return invalid("Faults.Crashes", "with protocol seq: crash rules need a DSM protocol, not seq (seq has no cluster to crash)")
	}
	if cfg.LmwGCBarriers > 0 {
		return invalid("LmwGCBarriers", "%d: incompatible with crash rules: recovery replays interval history the collector would discard", cfg.LmwGCBarriers)
	}
	seen := make(map[int]bool)
	for _, r := range plan.Crashes {
		if r.Node <= 0 || r.Node >= cfg.Procs {
			return invalid("Faults.Crashes", "node %d out of range: cluster has nodes 0..%d, and node 0 hosts the barrier manager and the reduction root; it cannot crash",
				r.Node, cfg.Procs-1)
		}
		if seen[r.Node] {
			return invalid("Faults.Crashes", "node %d appears twice: more than one crash rule per node", r.Node)
		}
		seen[r.Node] = true
		if r.Epoch < 1 {
			return invalid("Faults.Crashes", "node %d epoch %d: the first crashable barrier is epoch 1 (epoch 0 is initialization)", r.Node, r.Epoch)
		}
		if cfg.Transport != "" && r.RestartAfter != 0 {
			// Over a real transport the survivors' requests to a node that
			// stays down go unanswered until their retries run out.
			return invalid("Faults.Crashes", "node %d: transport %s supports only in-place restarts (a restart after 0 epochs); a node that stays down stalls the survivors",
				r.Node, cfg.Transport)
		}
	}
	return nil
}

// --- checkpoint store ----------------------------------------------------

// ckptRetain bounds the per-page diff ring: how many recent epochs'
// incremental records a page's checkpoint entry keeps for accounting.
const ckptRetain = 4

// ckptDiffRec is one retained incremental checkpoint record: the
// diff-encoded delta between a page's consecutive checkpointed images.
type ckptDiffRec struct {
	epoch int
	bytes int // wire.Diff-encoded size (full image size for the first write)
}

// ckptPage is the checkpointed state of one page under the bar family:
// the authoritative image, version and copyset as of the home's last
// barrier release, plus the bounded ring of incremental records. home is
// the node that cut the entry — the page's home at that cut — which lets
// an in-place restart reconstruct exactly the set of pages it was home
// of at its pre-release checkpoint, even across a racing migration.
type ckptPage struct {
	data    []byte
	version uint32
	copyset copyset
	epoch   int
	home    int
	ring    []ckptDiffRec
}

// ckptLmw is one node's checkpoint under the homeless family: every
// interval it has seen (own and foreign, with vector clocks), its own
// diffs, and its clock state. Restart replays the complete history;
// survivors read a dead creator's diffs from here when validation names
// an interval its creator can no longer serve.
type ckptLmw struct {
	log        []intervalRec
	haveIv     map[uint64]bool // ivKey(creator, index) already stored
	diffs      map[writeNotice]vm.Diff
	vc         []int
	myInterval int
	reported   int
	// chains is the manager-side request chain of every lock this node
	// manages; tokens maps the locks whose token this node holds to the
	// token's episode. Both are settled at a barrier release: a node
	// blocked in an acquire cannot arrive at the barrier, so no acquire is
	// in flight and no token is in use at the cut.
	chains map[int]lockChain
	tokens map[int]int
}

// ckptFlag is a flag manager's checkpointed flag state.
type ckptFlag struct {
	owner int
	set   bool
	ivs   []intervalRec
}

// ckptStore models the stable storage barrier-consistent checkpoints are
// written to. It is shared by every node in the cluster the way a
// network filesystem would be. Writers snapshot at barrier release
// before any yield, then bump their epoch; readers needing another
// node's epoch-E checkpoint poll awaitEpoch. The mutex serializes the
// realtime kernel's concurrent nodes and is uncontended under the
// discrete-event kernel.
type ckptStore struct {
	mu    sync.Mutex
	epoch []int // per node: newest fully written checkpoint epoch
	pages map[vm.PageID]*ckptPage
	lmw   []*ckptLmw
	flags map[int]*ckptFlag
	// home is the cluster's authoritative page-home map: initial block
	// distribution, then runtime migration, then crash re-election. The
	// barrier manager is the single writer (node 0's service).
	home []int
}

func newCkptStore(procs, npages int) *ckptStore {
	s := &ckptStore{
		epoch: make([]int, procs),
		pages: make(map[vm.PageID]*ckptPage),
		lmw:   make([]*ckptLmw, procs),
		flags: make(map[int]*ckptFlag),
		home:  make([]int, npages),
	}
	for i := range s.epoch {
		s.epoch[i] = -1
	}
	for pg := range s.home {
		s.home[pg] = initialHome(vm.PageID(pg), npages, procs)
	}
	return s
}

// writePage checkpoints one authoritative page image for its home node.
// Returns the incremental (diff-encoded) byte count charged for the
// write.
func (s *ckptStore) writePage(pg vm.PageID, data []byte, version uint32, cs copyset, epoch, home int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.pages[pg]
	if e == nil {
		e = &ckptPage{data: append([]byte(nil), data...)}
		s.pages[pg] = e
		e.version, e.copyset, e.epoch, e.home = version, cs, epoch, home
		rec := ckptDiffRec{epoch: epoch, bytes: len(data)}
		e.ring = append(e.ring, rec)
		return rec.bytes
	}
	d := vm.MakeDiff(pg, e.data, data)
	bytes := d.WireSize()
	copy(e.data, data)
	e.version, e.copyset, e.epoch, e.home = version, cs, epoch, home
	if len(e.ring) >= ckptRetain {
		copy(e.ring, e.ring[1:])
		e.ring = e.ring[:len(e.ring)-1]
	}
	e.ring = append(e.ring, ckptDiffRec{epoch: epoch, bytes: bytes})
	return bytes
}

// readPage loads a page's checkpoint: image copy, version, copyset. ok is
// false when the page was never checkpointed (never written: its content
// is the all-zero initial image at version 0).
func (s *ckptStore) readPage(pg vm.PageID) (data []byte, version uint32, cs copyset, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.pages[pg]
	if e == nil {
		return nil, 0, copyset{}, false
	}
	return append([]byte(nil), e.data...), e.version, e.copyset, true
}

// lmwEntry returns (creating) node's homeless checkpoint record. Caller
// must hold s.mu.
func (s *ckptStore) lmwEntry(node, procs int) *ckptLmw {
	e := s.lmw[node]
	if e == nil {
		e = &ckptLmw{
			haveIv: make(map[uint64]bool),
			diffs:  make(map[writeNotice]vm.Diff),
			vc:     make([]int, procs),
		}
		for i := range e.vc {
			e.vc[i] = -1
		}
		s.lmw[node] = e
	}
	return e
}

// bumpEpoch publishes node's checkpoint for epoch: everything written
// before the bump is visible to awaitEpoch readers.
func (s *ckptStore) bumpEpoch(node, epoch int) {
	s.mu.Lock()
	if epoch > s.epoch[node] {
		s.epoch[node] = epoch
	}
	s.mu.Unlock()
}

// epochOf returns node's newest published checkpoint epoch.
func (s *ckptStore) epochOf(node int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch[node]
}

// awaitEpoch blocks (in virtual time: short Advance polls that yield the
// discrete-event processor; in real time: brief sleeps) until node's
// checkpoint covers epoch. The writer snapshots before its first yield
// at the release, so the poll terminates as soon as the dying node's
// release event runs.
func (s *ckptStore) awaitEpoch(p *sim.Proc, node, epoch int) {
	for s.epochOf(node) < epoch {
		p.Advance(50 * sim.Microsecond)
	}
}

// setHome records a page-home reassignment (migration or re-election).
func (s *ckptStore) setHome(pg vm.PageID, home int) {
	s.mu.Lock()
	s.home[pg] = home
	s.mu.Unlock()
}

// homeSnapshot copies the cluster home map.
func (s *ckptStore) homeSnapshot() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.home...)
}

// homedCkpt lists the pages whose newest checkpoint entry was cut by
// node — the pages node was home of at its last cut — ascending.
func (s *ckptStore) homedCkpt(node int) []vm.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []vm.PageID
	for pg, e := range s.pages {
		if e.home == node {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// homedAt lists the pages currently homed at node, ascending.
func (s *ckptStore) homedAt(node int) []vm.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []vm.PageID
	for pg, h := range s.home {
		if h == node {
			out = append(out, vm.PageID(pg))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeFlag checkpoints a manager's flag state.
func (s *ckptStore) writeFlag(flag, owner int, set bool, ivs []intervalRec) {
	s.mu.Lock()
	s.flags[flag] = &ckptFlag{owner: owner, set: set, ivs: ivs}
	s.mu.Unlock()
}

// deadFlags returns the flags checkpointed by owner, for installation at
// the re-elected manager.
func (s *ckptStore) deadFlags(owner int) map[int]*ckptFlag {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]*ckptFlag)
	for f, e := range s.flags {
		if e.owner == owner {
			out[f] = e
		}
	}
	return out
}

// writeLmw appends node's newly seen intervals and newly created diffs to
// its checkpoint, returning (records, bytes) written for accounting.
// Intervals are identified by (creator, index), so repeated calls write
// each exactly once.
func (s *ckptStore) writeLmw(node, procs int, log map[int][]intervalRec, own map[writeNotice]vm.Diff, vc []int, myInterval, reported int) (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lmwEntry(node, procs)
	recs, bytes := 0, 0
	creators := make([]int, 0, len(log))
	for c := range log {
		creators = append(creators, c)
	}
	sort.Ints(creators)
	for _, c := range creators {
		for _, iv := range log[c] {
			k := ivKey(iv.Creator, iv.Index)
			if e.haveIv[k] {
				continue
			}
			e.haveIv[k] = true
			e.log = append(e.log, iv)
			recs++
			bytes += wire.SizeIntervals([]intervalRec{iv})
		}
	}
	for nt, d := range own {
		if nt.Creator != node {
			continue
		}
		if _, ok := e.diffs[nt]; ok {
			continue
		}
		e.diffs[nt] = d
		bytes += bytesDiffName + d.WireSize()
	}
	copy(e.vc, vc)
	e.myInterval, e.reported = myInterval, reported
	return recs, bytes
}

// writeLocks checkpoints node's lock-manager chains and held tokens.
// Chains and token holdings replace the previous cut's wholesale: a
// chain's lastOwner/lastSeq only advance, and a token either moved or it
// did not.
func (s *ckptStore) writeLocks(node, procs int, chains map[int]lockChain, tokens map[int]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lmwEntry(node, procs)
	e.chains = chains
	e.tokens = tokens
}

// readLmw returns node's homeless checkpoint for restart replay: the
// complete interval history it had seen, its own diffs, and clock state.
func (s *ckptStore) readLmw(node int) *ckptLmw {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lmw[node]
}

// deadDiffs returns the listed diffs from creator's checkpoint, for
// validation when the creator can no longer answer a diff request.
func (s *ckptStore) deadDiffs(creator int, wants []writeNotice) ([]diffMsg, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lmw[creator]
	if e == nil {
		return nil, fmt.Errorf("no checkpoint for node %d", creator)
	}
	out := make([]diffMsg, 0, len(wants))
	for _, nt := range wants {
		d, ok := e.diffs[nt]
		if !ok {
			return nil, fmt.Errorf("diff %v not in node %d's checkpoint", nt, creator)
		}
		out = append(out, diffMsg{Notice: nt, Diff: d})
	}
	return out, nil
}

// --- node-level crash machinery ------------------------------------------

// errCrashStop unwinds a dying compute body's stack through the
// application frames; runBody recovers it for never-restarted nodes only.
var errCrashStop = fmt.Errorf("core: crash-stop unwind")

// crashProto is implemented by protocol families that support crash-stop
// recovery. ckptWrite snapshots recoverable state into the checkpoint
// store without yielding, returning (items, bytes) for accounting.
// restoreCkpt seeds a freshly constructed protocol instance from the
// store as of epoch seq, again without yielding, returning the bytes
// read. onCrash performs a survivor's bookkeeping when peer dead forfeits
// its roles at barrier seq.
type crashProto interface {
	ckptWrite(seq int) (items, bytes int)
	restoreCkpt(seq int) (bytes int)
	onCrash(p *sim.Proc, dead, seq int)
}

// rejoiner is the optional checker extension notified when a restarted
// node rejoins having skipped epochs it was dead for.
type rejoiner interface {
	Rejoin(node, missed int)
}

// ckptWrite cuts this node's barrier-consistent checkpoint for epoch seq
// and publishes it. Yield-free: a dying node must not let its service
// mutate state between the cut and the death (or restore), or the change
// would be acknowledged and then lost. Returns the incremental bytes
// written, to be charged once yielding is safe again (ckptCharge).
func (n *node) ckptWrite(seq int) int {
	var items, bytes int
	if pr, ok := n.proto.(crashProto); ok {
		items, bytes = pr.ckptWrite(seq)
	}
	n.clu.ckpt.bumpEpoch(n.id, seq)
	n.ctr.CheckpointPages += int64(items)
	n.ctr.CheckpointBytes += int64(bytes)
	return bytes
}

// ckptCharge charges the stable-storage transfer cost of a checkpoint
// write or restore.
func (n *node) ckptCharge(bytes int) {
	if bytes > 0 {
		n.osCharge(n.clu.cm.CopyCost(bytes))
	}
}

// crashBookkeep runs a survivor's bookkeeping after the release of
// barrier seq: for every peer forfeiting its roles here, wait for its
// final checkpoint (published before the dying node's first yield at the
// release, so the poll is short) and let the protocol adopt whatever
// duties re-elect onto this node. Every survivor polls, which gives later
// requests a happens-before edge: any node past barrier seq has observed
// the dead node's final checkpoint.
func (n *node) crashBookkeep(seq int) {
	cp := n.clu.cp
	for dead, r := range cp.rule {
		if r == nil || dead == n.id || !cp.reelectAt(dead, seq) {
			continue
		}
		n.clu.ckpt.awaitEpoch(n.compute, dead, r.Epoch)
		if pr, ok := n.proto.(crashProto); ok {
			pr.onCrash(n.compute, dead, seq)
		}
	}
}

// crashStop kills this node at its crash epoch, just after the pre-apply
// checkpoint cut. Never-restarted nodes unwind the compute body; the rest
// park until the barrier manager's restart grant, restore from the store,
// and rejoin R barriers behind.
func (n *node) crashStop(seq int, rel *barRelease) *redResult {
	r := n.crashRule
	// Death is atomic with the cut: mark down before any yield, so no
	// request is serviced against post-cut state the checkpoint missed.
	n.crashed = true
	n.clu.net.SetDown(n.id, true)
	n.ctr.Crashes++
	n.trc(trace.Crash, -1, int64(seq))
	if !r.Restarts() {
		// Dead for good: close out accounting and unwind the body.
		n.ctr.Barriers++
		n.sampleEpoch()
		if n.measuring || !n.windowed {
			n.windowed = true
			n.snapshotStop()
		}
		panic(errCrashStop)
	}
	// Park until the restart grant, discarding everything else (stale
	// replies, retry alarms): the machine's memory is gone.
	var grant *restartMsg
	for {
		pkt := n.compute.Recv().Payload.(*netsim.Packet)
		if pkt.Kind == mkRestart {
			grant = pkt.Data.(*restartMsg)
			break
		}
	}
	n.restoreFromCkpt(grant.Seq)
	n.barSeq = grant.Seq + 1
	if n.clu.faultsOn {
		n.clu.net.SetEpoch(n.id, n.barSeq)
	}
	n.ctr.Restarts++
	n.trc(trace.Restart, -1, int64(grant.Seq))
	if n.check != nil {
		if rj, ok := n.check.(rejoiner); ok {
			rj.Rejoin(n.id, grant.Missed+1)
		}
	}
	n.ctr.Barriers++
	n.sampleEpoch()
	return rel.Red
}

// crashRestartInPlace models a node that crashes at its epoch and is
// restarted immediately (RestartAfter 0): volatile state is lost and
// rebuilt from its own pre-apply checkpoint, roles are kept, and the
// release it held at death is replayed by the caller. No barrier is
// missed, so recovery must be output-invisible — the differential suite
// checks such a run stays bit-identical to a crash-free one.
func (n *node) crashRestartInPlace(seq int) {
	n.crashed = true
	n.ctr.Crashes++
	n.trc(trace.Crash, -1, int64(seq))
	n.restoreFromCkpt(seq)
	n.ctr.Restarts++
	n.trc(trace.Restart, -1, int64(seq))
}

// restoreFromCkpt rebuilds this node's volatile state from the checkpoint
// store as of epoch seq: a fresh address space (every page unmapped until
// restored or refetched) and a fresh protocol instance seeded from stable
// storage. The swap and restore are yield-free so no handler can observe
// a half-built node.
func (n *node) restoreFromCkpt(seq int) {
	immediate := n.crashRule.RestartAfter == 0
	if !immediate {
		// The rejoin merge replays cluster history from node 0's epoch-seq
		// checkpoint; poll for it while the old protocol instance still
		// serves requests consistently.
		n.clu.ckpt.awaitEpoch(n.compute, 0, seq)
	}
	n.as = vm.NewAddressSpace(n.clu.cfg.SegmentBytes, n.clu.cm.PageSize)
	for pg := 0; pg < n.as.NumPages(); pg++ {
		n.as.SetProt(vm.PageID(pg), vm.None)
	}
	n.writeProbe = nil
	n.protChanges = 0
	n.stressFactor = 1
	if !immediate {
		// RAM is gone: banked flushes and request tracking die with it. (An
		// immediate in-place restart keeps both — its barrier bookkeeping is
		// still live and acks for tracked sends are still coming.)
		n.bank = make(map[int][]diffMsg)
		n.bankBatches = make(map[int]int)
		n.expUpdates = 0
		n.waitingUpd = false
		if n.rel != nil {
			clear(n.rel.outstanding)
		}
	}
	n.proto = newProtocol(n)
	var bytes int
	if pr, ok := n.proto.(crashProto); ok {
		bytes = pr.restoreCkpt(seq)
	}
	n.ckptCharge(bytes)
}
