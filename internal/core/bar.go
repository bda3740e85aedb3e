package core

import (
	"sort"

	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/trace"
	"godsm/internal/vm"
)

// The home-based family's barrier payloads (barArrivalBar, copysetRec,
// migrateRec, barReleaseBar) are defined in internal/wire and aliased in
// messages.go: they cross the network, so the codec owns them.

// barMode selects among the five home-based protocols.
type barMode int

const (
	// barModeI: invalidate; misses fetch whole pages from the home.
	barModeI barMode = iota
	// barModeU: copyset-directed updates, waited for inside the barrier.
	barModeU
	// barModeS: bar-u with overdrive replacing segv write trapping.
	barModeS
	// barModeM: bar-s with steady-state mprotect eliminated.
	barModeM
	// barModeA: adaptive. bar-u with per-page runtime selection between
	// update and invalidate (interest probes meter updates received
	// against faults they satisfied; pages whose pushes outnumber their
	// reads switch to fetch-on-demand, see adaptDecide), plus a graceful
	// per-page overdrive: predicted pages are pre-twinned and
	// write-enabled like bar-s, but an unpredicted write takes the
	// ordinary trapping path instead of aborting, so dynamic sharing
	// patterns stay legal.
	barModeA
)

func (m barMode) update() bool    { return m != barModeI }
func (m barMode) overdrive() bool { return m == barModeS || m == barModeM || m == barModeA }

// bar implements the home-based barrier protocols of §2.2 and §4-5.
type bar struct {
	n    *node
	mode barMode

	home    []int     // current home of every page
	version []uint32  // authoritative version (meaningful where home)
	vcache  []uint32  // version our local copy derives from
	copyset []copyset // consumers, maintained where we are home
	wcopy   []copyset // consumer sets learned from releases (we push to these)
	subscr  []bool    // we are a registered consumer of the page
	// coveredAt is the first epoch whose update flushes are guaranteed to
	// include us: a fetch at epoch f is advertised at barrier f and used
	// by writers from barrier f+1, covering epochs >= f+2; copyset news
	// seen at epoch e reach writers at the same release, covering epochs
	// >= e+1. fetchAt is the epoch of our last page fetch. Together they
	// let consumeUpdates recognize a mid-epoch fetch that absorbed some
	// of the epoch's version bumps (the fetched copy is a coherent
	// snapshot taken while the home was ahead of us in the barrier).
	coveredAt []int
	fetchAt   []int
	// mergeLog records, per page we are home of, which writer's diff was
	// merged into the authoritative copy at which epoch. A page reply built
	// mid-epoch reports the current epoch's entries as pageRep.Absorbed, so
	// the fetcher can tell a version bump its snapshot already contains
	// from one it is still owed. Entries older than the newest epoch are
	// pruned on append: once an epoch-M flush merges, every node has left
	// the windows whose fetches could still need earlier entries.
	mergeLog [][]mergeRec
	// fetchAbs holds, per page, the Absorbed list of our last fetch; only
	// meaningful when fetchAt names the current window.
	fetchAbs [][]int

	dirty       []vm.PageID // twinned pages this epoch
	isDirty     []bool
	homeDirty   []vm.PageID // home-modified pages without twins this epoch
	isHomeDirty []bool
	selfPushed  []bool // pages whose diff we pushed this epoch (version math)
	pushedList  []vm.PageID

	csNews    []copysetRec  // additions to report at our next arrival
	verReport []pageVersion // version bumps to report at our next arrival

	iterEnd  bool // IterationBoundary passed since the last barrier
	relStash *barReleaseBar

	// Migration: home roles we must pull as a new home (set at release,
	// pulled in postBarrier, inside the barrier).
	owedPulls []migrateRec
	// installing queues requests for pages whose home role is in flight
	// to us.
	installing map[vm.PageID]*installQueue

	// Overdrive.
	odActive  bool
	odPending bool
	learning  bool
	hist      map[int]map[vm.PageID]bool // epoch start site -> written pages
	epochSite int

	// Adaptive per-page accounting (barModeA only; the slices stay nil
	// under the other modes). A probed page has protection None but its
	// contents are kept current by the updates we still consume — the
	// next access faults, revalidates locally at segv+mprotect cost with
	// no messages, and counts one fault the subscription satisfied.
	// Probes re-arm at every update delivery, so readCnt meters exactly
	// the fetches an invalidate protocol would have paid, while updCnt
	// meters the pushes the subscription costs. adaptDecide compares the
	// two at each iteration boundary and moves losing pages to inval
	// (fetch-on-demand, no copyset membership, sticky), the drop
	// announced at the next arrival.
	probe    []bool
	updCnt   []int32     // amortized push credit this iteration, adaptCreditUnit fixed-point
	readCnt  []int32     // probe revalidations (satisfied faults) this iteration
	burstCnt []int32     // epochs with ≥1 push this iteration
	touchCnt []int32     // epochs this iteration in which we dirtied the page
	armIter  []int32     // iteration the probe first armed, -1 before (gates the read rule)
	wrote    []bool      // page written (twinned) at any epoch this iteration
	wflushed []int32     // per writer: pages in its flush this epoch (edge-accounting scratch)
	accSeen  []bool      // page is on accList
	accList  []vm.PageID // pages with live counters, reset each boundary
	inval    []bool      // page runs invalidate-mode: fetch on miss, never subscribe
	// optOut, kept where we are home, pins dropped members out of the
	// copyset: writers re-enroll on every home flush, so without it a
	// drop would last one epoch.
	optOut []copyset
	drops  []copysetRec // unsubscriptions to report at our next arrival

	// Flush accumulators and the update-consumption scratch map, reused
	// across epochs to keep the per-barrier hot path allocation-lean.
	homeAcc *flushAccum
	updAcc  *flushAccum
	perPage map[vm.PageID][]diffMsg

	// gens rotates per-epoch arenas for outbound diffs, update batches
	// and message structs on fault-free runs (see core/arena.go for the
	// lifetime argument). Lazily built; stays nil under fault injection,
	// where updAcc's detach path is used instead.
	gens [epochGens]*epochArena

	// ckptVer tracks, per page, the version our last checkpoint cut wrote,
	// so unchanged home pages are not rewritten every epoch. Nil when the
	// checkpoint store is disarmed (no crash rules) — the crash machinery
	// then costs the fault-free hot paths nothing.
	ckptVer []uint32
	// odBanned pins the protocol in normal trapping mode after a crash
	// restore: the prediction histories died with the node, and engaging
	// overdrive on partial histories would turn ordinary writes into
	// divergence fatals.
	odBanned bool
}

// installQueue buffers service requests that arrived before a migrated
// page's install.
type installQueue struct {
	pkts []*netsim.Packet
}

// mergeRec is one mergeLog entry: creator's diff merged at epoch.
type mergeRec struct {
	epoch   int
	creator int
}

func newBar(n *node, mode barMode) *bar {
	np := n.as.NumPages()
	b := &bar{
		n:           n,
		mode:        mode,
		home:        make([]int, np),
		version:     make([]uint32, np),
		vcache:      make([]uint32, np),
		copyset:     make([]copyset, np),
		wcopy:       make([]copyset, np),
		subscr:      make([]bool, np),
		coveredAt:   make([]int, np),
		fetchAt:     make([]int, np),
		mergeLog:    make([][]mergeRec, np),
		fetchAbs:    make([][]int, np),
		isDirty:     make([]bool, np),
		isHomeDirty: make([]bool, np),
		selfPushed:  make([]bool, np),
		installing:  make(map[vm.PageID]*installQueue),
		hist:        make(map[int]map[vm.PageID]bool),
		epochSite:   -1,
		homeAcc:     newFlushAccum(),
		updAcc:      newFlushAccum(),
		perPage:     make(map[vm.PageID][]diffMsg),
	}
	for pg := range b.home {
		b.home[pg] = initialHome(vm.PageID(pg), np, n.clu.cfg.Procs)
		b.coveredAt[pg] = -1
		b.fetchAt[pg] = -1
	}
	if n.clu.ckpt != nil {
		b.ckptVer = make([]uint32, np)
	}
	if mode == barModeA {
		b.probe = make([]bool, np)
		b.updCnt = make([]int32, np)
		b.readCnt = make([]int32, np)
		b.burstCnt = make([]int32, np)
		b.touchCnt = make([]int32, np)
		b.armIter = make([]int32, np)
		for i := range b.armIter {
			b.armIter[i] = -1
		}
		b.wrote = make([]bool, np)
		b.wflushed = make([]int32, n.clu.cfg.Procs)
		b.accSeen = make([]bool, np)
		b.inval = make([]bool, np)
		b.optOut = make([]copyset, np)
	}
	return b
}

// probed reports whether pg is an armed interest probe: protection None
// but contents current (barModeA only; probe stays nil otherwise).
func (b *bar) probed(pg vm.PageID) bool {
	return b.probe != nil && b.probe[pg]
}

// clearProbe disarms pg's probe without touching its protection.
func (b *bar) clearProbe(pg vm.PageID) {
	b.probe[pg] = false
}

// invalMode reports whether pg runs per-page invalidate mode: misses
// fetch without subscribing.
func (b *bar) invalMode(pg vm.PageID) bool {
	return b.inval != nil && b.inval[pg]
}

// touch puts pg on the boundary-reset list for the adaptive counters.
func (b *bar) touch(pg vm.PageID) {
	if !b.accSeen[pg] {
		b.accSeen[pg] = true
		b.accList = append(b.accList, pg)
	}
}

// probeHit services a fault on a probed page: contents are current
// (updates kept landing), so revalidate locally — one segv and one
// mprotect, zero messages — and count one fault the subscription paid
// for.
func (b *bar) probeHit(pg vm.PageID) {
	n := b.n
	b.clearProbe(pg)
	n.ctr.ProbeHits++
	b.readCnt[pg]++
	b.touch(pg)
	n.mprotect(pg, vm.Read)
}

func (b *bar) epoch() int { return b.n.barSeq }

// --- faults ---------------------------------------------------------------

func (b *bar) readFault(pg vm.PageID) {
	n := b.n
	if b.probed(pg) {
		b.probeHit(pg)
		return
	}
	if n.as.Prot(pg) != vm.None {
		n.fatal("bar: read fault on valid page %d", pg)
	}
	b.fetchPage(pg)
}

func (b *bar) writeFault(pg vm.PageID) {
	n := b.n
	if b.odActive && b.mode != barModeA {
		// Overdrive missed this write: the access pattern diverged. The
		// prototype "complains loudly and exits". Adaptive mode instead
		// falls through to the ordinary trapping path below, which is
		// what makes it legal when the sharing pattern drifts.
		n.fatal("%v: unpredicted write to page %d during overdrive (sharing pattern diverged)",
			n.clu.cfg.Protocol, pg)
	}
	if b.probed(pg) {
		// Contents are current; restore readability so the miss path
		// below does not refetch what the updates already delivered. A
		// write to an invalidate-mode page would have fetched, so the hit
		// counts in the probe accounting like a read.
		b.probeHit(pg)
	}
	if n.as.Prot(pg) == vm.None {
		b.fetchPage(pg)
	}
	if b.home[pg] == n.id && !(b.mode.update() && b.copyset[pg].without(n.id).any()) {
		// The home effect: the home tracks its modification but creates no
		// twin or diff. (With consumers to update, the home twins after
		// all, so it has a diff to push.)
		if !b.isHomeDirty[pg] {
			b.isHomeDirty[pg] = true
			b.homeDirty = append(b.homeDirty, pg)
		}
	} else if !b.isDirty[pg] && !b.isHomeDirty[pg] {
		n.makeTwin(pg)
		b.isDirty[pg] = true
		b.dirty = append(b.dirty, pg)
		if b.wrote != nil {
			b.wrote[pg] = true
			b.touchCnt[pg]++
			b.touch(pg)
		}
	}
	n.mprotect(pg, vm.ReadWrite)
}

// fetchPage services a miss with a whole-page copy from the home.
func (b *bar) fetchPage(pg vm.PageID) {
	n := b.n
	if b.home[pg] == n.id {
		n.fatal("bar: miss on own home page %d", pg)
	}
	n.ctr.RemoteMisses++
	n.ctr.PageFetches++
	n.ps.PageFetch(pg)
	n.sendRequest(b.home[pg], mkPageReq, bytesPageReq,
		&pageReq{Page: pg, Epoch: b.epoch(), NoSub: b.invalMode(pg)})
	pkt := n.awaitReply()
	if pkt.Kind != mkPageRep {
		n.fatal("bar: expected page reply, got kind %d", pkt.Kind)
	}
	rep := pkt.Data.(*pageRep)
	n.trc(trace.PageFetch, int(pg), int64(rep.Version))
	n.osCharge(n.clu.cm.FaultService)
	n.osCharge(n.clu.cm.CopyCost(n.as.PageSize()))
	n.as.CopyPageIn(pg, rep.Data)
	// The page image is consumed; recycle its buffer. Retransmitted copies
	// of this reply are suppressed by request id without reading Data.
	vm.PutPageBuf(rep.Data)
	b.vcache[pg] = rep.Version
	b.fetchAt[pg] = b.epoch()
	b.fetchAbs[pg] = rep.Absorbed
	if b.mode.update() && !b.invalMode(pg) {
		b.subscr[pg] = true
		b.setCovered(pg, b.epoch()+2)
	}
	n.mprotect(pg, vm.Read)
}

// --- barrier phases ---------------------------------------------------------

func (b *bar) preBarrier(int) (any, int) {
	n := b.n
	cm := n.clu.cm
	epoch := b.epoch()

	arr := &barArrivalBar{IterEnd: b.iterEnd}
	b.iterEnd = false
	if len(b.drops) > 0 {
		arr.CopysetDrops = b.drops
		b.drops = nil
	}

	// Learning for migration (first iteration) and overdrive histories.
	// The epoch ending at the very first barrier is initialization (node 0
	// typically populates every array) and would poison the writer sets,
	// so it is excluded; the paper likewise bases migration on the first
	// compute iteration.
	if n.iter == 0 && n.barSeq > 1 {
		arr.Written = append(append([]vm.PageID(nil), b.dirty...), b.homeDirty...)
	}
	if b.learning && b.mode.overdrive() {
		set := b.hist[b.epochSite]
		if set == nil {
			set = make(map[vm.PageID]bool)
			b.hist[b.epochSite] = set
		}
		for _, pg := range b.dirty {
			set[pg] = true
		}
		for _, pg := range b.homeDirty {
			set[pg] = true
		}
	}

	// The home effect, part 1: home-modified pages bump the version with
	// no diff at all.
	for _, pg := range b.homeDirty {
		b.isHomeDirty[pg] = false
		b.version[pg]++
		b.vcache[pg] = b.version[pg]
		b.verReport = append(b.verReport, pageVersion{Page: pg, Version: b.version[pg]})
		if !(b.odActive && b.mode == barModeM) {
			n.mprotect(pg, vm.Read)
		}
	}
	b.homeDirty = b.homeDirty[:0]

	// Diff every twinned page; route diffs to homes and consumers. On
	// fault-free runs the diffs, update batches and flush structs come
	// from this epoch's arena generation (rotated with period epochGens;
	// see core/arena.go for the lifetime argument). Under fault injection
	// the dedup/replay layer retains sent packets indefinitely, so the
	// detach path stays in force.
	var gen *epochArena
	if !n.clu.faultsOn {
		if b.gens[epoch%epochGens] == nil {
			b.gens[epoch%epochGens] = newEpochArena()
		}
		gen = b.gens[epoch%epochGens]
		gen.reset()
	}
	homeFlushes := b.homeAcc
	updFlushes := b.updAcc
	if gen != nil {
		updFlushes = gen.upd
	}
	for _, pg := range b.dirty {
		b.isDirty[pg] = false
		n.osCharge(cm.DiffCreateCost(n.as.PageSize()))
		var d vm.Diff
		if gen != nil {
			d = n.as.DiffAgainstTwinArena(pg, &gen.diffs)
		} else {
			d = n.as.DiffAgainstTwin(pg)
		}
		n.as.DiscardTwin(pg)
		if !(b.odActive && b.mode == barModeM) {
			n.mprotect(pg, vm.Read)
		}
		if d.Empty() {
			// Overdrive misprediction: twin and comparison were pure
			// overhead, but nothing needs to move.
			n.ctr.EmptyDiffs++
			continue
		}
		n.ctr.Diffs++
		n.ps.Diff(pg)
		n.trc(trace.DiffCreate, int(pg), int64(d.Size()))
		dm := diffMsg{Notice: writeNotice{Page: pg, Creator: n.id, Epoch: epoch}, Diff: d}
		if b.home[pg] == n.id {
			// Home as writer (update mode with consumers): bump locally.
			b.version[pg]++
			b.vcache[pg] = b.version[pg]
			b.verReport = append(b.verReport, pageVersion{Page: pg, Version: b.version[pg]})
			b.logMerge(pg, epoch, n.id)
		} else {
			homeFlushes.add(b.home[pg], dm)
		}
		if b.mode.update() {
			cs := b.wcopy[pg]
			if b.home[pg] == n.id {
				cs = cs.union(b.copyset[pg])
			}
			// The home receives the diff via the acknowledged home flush;
			// never push to it as a consumer.
			cs = cs.without(b.home[pg])
			for cs = cs.without(n.id); cs.any(); {
				m := cs.lowest()
				cs = cs.without(m)
				updFlushes.add(m, dm)
				n.ps.UpdatePush(pg)
			}
			if !b.selfPushed[pg] {
				b.selfPushed[pg] = true
				b.pushedList = append(b.pushedList, pg)
			}
		}
	}
	b.dirty = b.dirty[:0]

	// Consumer updates go first (unacknowledged, one message per
	// destination) so they are in flight before anyone can be released.
	for _, batch := range updFlushes.sorted() {
		n.ctr.UpdatesSent += int64(len(batch.diffs))
		n.trc(trace.UpdatePush, -1, int64(batch.dst))
		arr.PushDests = append(arr.PushDests, batch.dst)
		var m *updateFlush
		if gen != nil {
			m = gen.updFlushMsg()
		} else {
			m = new(updateFlush)
		}
		*m = updateFlush{Epoch: epoch, Diffs: batch.diffs}
		n.sendFlush(batch.dst, mkUpdateFlush, batch.wire, m)
	}
	if gen == nil {
		// Unacknowledged batches may be banked by the receiver and read
		// later; without an arena generation to rotate them through, the
		// slices must detach.
		updFlushes.reset(true)
	}

	// Home flushes are acknowledged; the acks carry post-apply versions,
	// settling every version bump before our arrival reports it.
	homeBatches := homeFlushes.sorted()
	for _, batch := range homeBatches {
		n.sendRequest(batch.dst, mkHomeFlush, batch.wire, &homeFlush{Epoch: epoch, Diffs: batch.diffs})
	}
	for range homeBatches {
		pkt := n.awaitReply()
		if pkt.Kind != mkHomeFlushAck {
			n.fatal("bar: expected flush ack, got kind %d", pkt.Kind)
		}
		b.verReport = append(b.verReport, pkt.Data.(*homeFlushAck).Versions...)
	}
	// The acks prove the homes consumed the batches, so on a reliable
	// network the slices are reusable next epoch; under fault injection
	// the dedup layer retains sent packets for replay, so detach instead.
	homeFlushes.reset(n.clu.faultsOn)

	arr.Versions = b.verReport
	b.verReport = nil
	arr.CopysetNews = b.csNews
	b.csNews = nil
	return arr, arr.ModelSize()
}

func (b *bar) onRelease(_ int, rel any) {
	n := b.n
	r := rel.(*barReleaseBar)
	b.relStash = r

	// Drops before news: a page dropped and re-fetched within the same
	// epoch emits both records, and the re-subscription must win.
	for _, cd := range r.CopysetDrops {
		b.wcopy[cd.Page] = b.wcopy[cd.Page].without(cd.Member)
		if b.home[cd.Page] == n.id {
			b.copyset[cd.Page] = b.copyset[cd.Page].without(cd.Member)
			if b.optOut != nil {
				// Writers re-enroll on every home flush; the opt-out mask
				// keeps the dropped member out until it asks back in with a
				// subscribing fetch.
				b.optOut[cd.Page].add(cd.Member)
			}
		}
	}
	for _, cn := range r.CopysetNews {
		b.wcopy[cn.Page].add(cn.Member)
		if b.home[cn.Page] == n.id {
			// Our service already recorded the addition; re-applying it
			// here is idempotent and restores a member a same-epoch drop
			// above just removed.
			b.copyset[cn.Page].add(cn.Member)
		}
		if cn.Member == n.id {
			b.subscr[cn.Page] = true
			b.setCovered(cn.Page, b.epoch()+1)
		}
	}
	for _, mg := range r.Migrations {
		b.home[mg.Page] = mg.NewHome
		if mg.NewHome == n.id {
			n.ctr.HomeMigrations++
			n.ps.Migration(mg.Page)
			b.owedPulls = append(b.owedPulls, mg)
			// Third-party requests racing the install queue here.
			if b.installing[mg.Page] == nil {
				b.installing[mg.Page] = &installQueue{}
			}
		}
	}

	for _, pv := range r.Versions {
		pg := pv.Page
		if b.home[pg] == n.id {
			// Our copy is authoritative (diffs were applied to it by our
			// service); just track the settled version.
			if b.version[pg] < pv.Version {
				// A flush can still be racing a migration install; the
				// install path reconciles.
				continue
			}
			b.vcache[pg] = b.version[pg]
			continue
		}
		if b.vcache[pg] >= pv.Version {
			continue
		}
		if b.mode.update() && b.subscr[pg] {
			continue // postBarrier decides after updates are in
		}
		if b.selfPushed[pg] && pv.Version == b.vcache[pg]+1 {
			// We were the only modifier; our copy matches the home's.
			b.vcache[pg] = pv.Version
			continue
		}
		b.invalidate(pg)
	}
}

// overdriveRefetch restores coherence for a page whose update accounting
// fell short while bar-m's protections are frozen: invalidation is
// impossible (the stale copy would stay silently readable), so fetch the
// home's authoritative copy instead, keeping whatever protection the
// overdrive engagement left on the page. Rare by construction — steady-
// state copysets are stable, so every bump arrives as an update — but a
// real transport (or a lossy network) can starve a consumer of a flush
// the virtual clock always delivered in time.
func (b *bar) overdriveRefetch(pg vm.PageID) {
	n := b.n
	prev := n.as.Prot(pg)
	n.ctr.StaleRefetches++
	b.fetchPage(pg)
	if prev == vm.ReadWrite {
		n.mprotect(pg, vm.ReadWrite)
	}
}

// invalidate discards a stale cached copy.
func (b *bar) invalidate(pg vm.PageID) {
	n := b.n
	if n.as.Prot(pg) == vm.None {
		return
	}
	if b.odActive && b.mode == barModeM {
		// bar-m has forsworn protection changes, so the stale copy stays
		// readable. With an invariant access pattern this node never
		// touches the page again and the staleness is invisible; if the
		// pattern diverges, a read returns stale data silently — exactly
		// why "bar-m is not guaranteed to maintain consistency".
		n.ctr.StaleSkips++
		if n.check != nil {
			n.check.Stale(n.id, pg)
		}
		return
	}
	n.mprotect(pg, vm.None)
}

func (b *bar) postBarrier(site int) {
	r := b.relStash
	b.relStash = nil

	// Take over owed home roles before consuming updates: after the pull,
	// our copy is authoritative and banked updates become no-ops.
	for _, mg := range b.owedPulls {
		b.pullHome(mg)
	}
	b.owedPulls = nil

	if b.mode.update() {
		b.consumeUpdates(r)
	}
	for _, pg := range b.pushedList {
		b.selfPushed[pg] = false
	}
	b.pushedList = b.pushedList[:0]

	if b.odPending {
		b.engageOverdrive()
	}
	if b.odActive {
		b.armPredictions(site)
	}
	b.epochSite = site
}

// consumeUpdates waits for the epoch's expected update batches, then
// applies them, validating version arithmetic per page: a page is current
// only if its banked diffs plus our own pushed diff account for every
// version bump. Shortfalls (lost flushes, mid-epoch copyset joins, home
// no-diff modifications) invalidate conservatively.
func (b *bar) consumeUpdates(r *barReleaseBar) {
	n := b.n
	epoch := b.epoch()
	// The completeness verdict is advisory only: per-page creator accounting
	// below detects any missing flush as an undershoot and invalidates.
	n.waitUpdates(epoch, r.ExpBatches)
	banked := n.takeBankedUpdates(epoch)
	perPage := b.perPage // reused scratch; emptied again before returning
	for _, dm := range banked {
		perPage[dm.Notice.Page] = append(perPage[dm.Notice.Page], dm)
	}
	if b.mode == barModeA {
		// Per-writer edge accounting: a writer sends one flush per epoch
		// (duplicates are suppressed at banking), so its banked diff count
		// is the number of pages that flush carried. Unsubscribing pages
		// only saves a message when it retires a writer's entire flush,
		// so each diff is credited 1/k of a message (pushCredit) rather
		// than the whole message the old per-diff count claimed.
		for _, dm := range banked {
			b.wflushed[dm.Notice.Creator]++
		}
		defer func() {
			for _, dm := range banked {
				b.wflushed[dm.Notice.Creator] = 0
			}
		}()
	}
	for _, pv := range r.Versions {
		pg := pv.Page
		diffs := perPage[pg]
		delete(perPage, pg)
		if b.home[pg] == n.id {
			// Stale copysets can still push to us after we took the home
			// role; the home flush already delivered these modifications.
			n.ctr.UpdatesUnneeded += int64(len(diffs))
			continue
		}
		if b.vcache[pg] >= pv.Version {
			continue
		}
		if !b.subscr[pg] && len(diffs) == 0 {
			continue // handled at onRelease
		}
		selfDelta := uint32(0)
		if b.selfPushed[pg] {
			selfDelta = 1
		}
		var ok bool
		if b.fetchAt[pg] >= epoch-1 {
			// We faulted mid-epoch and fetched a coherent snapshot taken
			// while the home may already have merged some of this epoch's
			// flushes: those bumps are inside vcache, and banked diffs from
			// the same writers are double-counted (applying them again is
			// idempotent). Count arithmetic alone cannot tell an absorbed
			// bump from a missing flush — the two cancel — so the accounting
			// is by creator: the page is current exactly when the fresh
			// banked diffs (creators the snapshot had not absorbed, per the
			// home's pageRep.Absorbed list) plus our own push cover every
			// bump the snapshot is still owed. Anything else — a writer that
			// pushed before we joined the copyset, a lost flush, a home
			// modification with no diff to push — invalidates conservatively.
			fresh := selfDelta
			for _, dm := range diffs {
				if !absorbedHas(b.fetchAbs[pg], dm.Notice.Creator) {
					fresh++
				}
			}
			ok = b.vcache[pg]+fresh == pv.Version
		} else {
			ok = b.vcache[pg]+uint32(len(diffs))+selfDelta == pv.Version
		}
		if (n.as.Prot(pg) != vm.None || b.probed(pg)) && ok {
			for i, dm := range diffs {
				n.trc(trace.DiffApply, int(pg), int64(dm.Diff.Size()))
				if n.clu.cfg.CheckDisjoint {
					for _, prev := range diffs[:i] {
						if prev.Diff.Overlaps(dm.Diff) {
							n.fatal("bar: data race on page %d: nodes %d and %d wrote overlapping words in epoch %d",
								pg, prev.Notice.Creator, dm.Notice.Creator, epoch)
						}
					}
				}
				n.osCharge(n.clu.cm.DiffApplyCost(dm.Diff.Size()))
				n.as.ApplyDiff(dm.Diff)
			}
			b.vcache[pg] = pv.Version
			if b.mode == barModeA && len(diffs) > 0 {
				b.updCnt[pg] += b.pushCredit(diffs)
				b.burstCnt[pg]++
				b.touch(pg)
				// Re-arm the probe at every delivery so the next fault on
				// the page is observable: readCnt then meters exactly the
				// misses an invalidate protocol would have paid. Pages we
				// write ourselves (dirty, or write-enabled by overdrive)
				// cannot be probed — their subscription is left alone.
				if !b.probe[pg] && !b.inval[pg] && b.subscr[pg] &&
					b.home[pg] != n.id && !b.isDirty[pg] && !b.isHomeDirty[pg] &&
					n.as.Prot(pg) == vm.Read && n.iter+1 >= n.clu.cfg.LearnIters {
					b.probe[pg] = true
					if b.armIter[pg] < 0 {
						b.armIter[pg] = int32(n.iter)
					}
					n.mprotect(pg, vm.None)
				}
			}
		} else {
			n.ctr.UpdatesUnneeded += int64(len(diffs))
			if b.mode == barModeA && len(diffs) > 0 {
				b.updCnt[pg] += b.pushCredit(diffs)
				b.burstCnt[pg]++
				b.touch(pg)
			}
			if b.probed(pg) {
				// The probe's contents just went stale (a bump we cannot
				// account for); the page reverts to plain invalid and the
				// next read refetches.
				b.clearProbe(pg)
			}
			if b.odActive && b.mode == barModeM && n.as.Prot(pg) != vm.None {
				b.overdriveRefetch(pg)
			} else {
				b.invalidate(pg)
			}
		}
	}
	// Updates for pages without version news would be a protocol bug;
	// updates we cannot use (stale copysets after invalidation) are waste.
	for pg, diffs := range perPage {
		if n.as.Prot(pg) == vm.None {
			n.ctr.UpdatesUnneeded += int64(len(diffs))
			continue
		}
		n.fatal("bar: banked updates for page %d without version news", pg)
	}
	clear(perPage)
}

// adaptCreditUnit is the fixed-point scale of the adaptive ledger's
// message accounting: one whole retired flush message = adaptCreditUnit.
const adaptCreditUnit = 256

// pushCredit is the amortized message credit of one page's banked diffs:
// a diff from a writer whose flush carried k pages this epoch is worth
// 1/k of a message (in adaptCreditUnit fixed-point), since only dropping
// all k pages retires the flush. The per-page credits of a batch sum to
// the whole message, so joint drops still account exactly — while a
// single page of a large batch can no longer claim the full message the
// old per-diff count credited it. (A flush of more than adaptCreditUnit
// pages rounds to zero credit: dropping any one page of it is pure
// fetch-risk for no measurable message gain.)
func (b *bar) pushCredit(diffs []diffMsg) int32 {
	credit := int32(0)
	for _, dm := range diffs {
		credit += adaptCreditUnit / b.wflushed[dm.Notice.Creator]
	}
	return credit
}

// pullHome takes over a page's home role from its old home, blocking
// inside the barrier so our first access (or the first queued request) is
// served from the installed authoritative copy. When the old home is
// dead, the authoritative copy comes from its final checkpoint instead of
// a request it can no longer answer.
func (b *bar) pullHome(mg migrateRec) {
	n := b.n
	pg := mg.Page
	if cp := n.clu.cp; cp != nil && cp.demoted(mg.OldHome, n.barSeq-1) {
		b.pullHomeFromStore(mg)
		return
	}
	n.sendRequest(mg.OldHome, mkHomePull, bytesPageReq, &homePull{Page: pg})
	pkt := n.awaitReply()
	if pkt.Kind != mkHomePullRep {
		n.fatal("bar: expected home-pull reply, got kind %d", pkt.Kind)
	}
	rep := pkt.Data.(*homePullRep)
	n.osCharge(n.clu.cm.CopyCost(n.as.PageSize()))
	n.as.CopyPageIn(pg, rep.Data)
	// Consumed; recycle (replayed copies are suppressed unread, as in
	// fetchPage).
	vm.PutPageBuf(rep.Data)
	b.version[pg] = rep.Version
	b.vcache[pg] = rep.Version
	b.copyset[pg] = b.copyset[pg].union(copyset(rep.Copyset).without(n.id))
	b.adoptCkpt(pg)
	n.trc(trace.Migration, int(pg), int64(n.id))
	n.mprotect(pg, vm.Read)
	b.drainInstall(pg)
}

// pullHomeFromStore installs a home role whose old home crashed: content,
// version and copyset come from the dead node's final (pre-release)
// checkpoint cut, which is complete by construction — every epoch-E flush
// to the old home was acknowledged before its sender could arrive at
// barrier E, so it was merged before the cut.
func (b *bar) pullHomeFromStore(mg migrateRec) {
	n := b.n
	pg := mg.Page
	ck := n.clu.ckpt
	ck.awaitEpoch(n.compute, mg.OldHome, n.clu.cp.rule[mg.OldHome].Epoch)
	data, ver, cs, ok := ck.readPage(pg)
	ps := n.as.PageSize()
	if ok {
		n.osCharge(n.clu.cm.CopyCost(ps))
		n.as.CopyPageIn(pg, data)
	} else {
		// Never checkpointed: the page was never written anywhere, so the
		// authoritative content is the all-zero initial image at version 0.
		clear(n.as.Mem[int(pg)*ps : (int(pg)+1)*ps])
	}
	b.version[pg] = ver
	b.vcache[pg] = ver
	cset := cs.without(n.id)
	for i := 0; i < n.clu.cfg.Procs; i++ {
		if n.clu.cp.demoted(i, n.barSeq-1) {
			cset = cset.without(i)
		}
	}
	b.copyset[pg] = cset
	b.adoptCkpt(pg)
	n.trc(trace.Migration, int(pg), int64(n.id))
	n.mprotect(pg, vm.Read)
	b.drainInstall(pg)
}

// adoptCkpt writes a just-adopted home page through to the checkpoint
// store under this node's name, so the store's per-page owner stays the
// page's real home. Near-free: the content matches the stored image, so
// the incremental record is empty.
func (b *bar) adoptCkpt(pg vm.PageID) {
	ck := b.n.clu.ckpt
	if ck == nil {
		return
	}
	n := b.n
	ps := n.as.PageSize()
	ck.writePage(pg, n.as.Mem[int(pg)*ps:(int(pg)+1)*ps], b.version[pg], b.copyset[pg], n.barSeq-1, n.id)
	b.ckptVer[pg] = b.version[pg]
}

// drainInstall serves the requests that queued behind a home install.
func (b *bar) drainInstall(pg vm.PageID) {
	if q := b.installing[pg]; q != nil {
		delete(b.installing, pg)
		for _, qp := range q.pkts {
			b.dispatchHomeReq(b.n.compute, qp)
		}
	}
}

// engageOverdrive transitions bar-s/bar-m into steady-state operation.
func (b *bar) engageOverdrive() {
	n := b.n
	b.odPending = false
	// Adaptive mode keeps learning after engagement: unpredicted writes
	// are ordinary (non-fatal) faults, so histories can keep absorbing a
	// drifting pattern and predictions improve instead of aborting.
	b.learning = b.mode == barModeA
	b.odActive = true
	n.trc(trace.OverdriveOn, -1, 0)
	if b.mode == barModeM {
		// Every page the histories predict we will write must be writable
		// before we stop calling mprotect. One last batch of protection
		// changes, then silence. A predicted page the last learning epoch
		// invalidated must be refetched first: write-enabling a stale copy
		// would let its unwritten words be read stale for the rest of the
		// run.
		for _, pg := range b.allPredicted() {
			if n.as.Prot(pg) == vm.None {
				n.ctr.StaleRefetches++
				b.fetchPage(pg)
			}
			n.mprotect(pg, vm.ReadWrite)
		}
		if n.clu.cfg.CheckOverdrive {
			b.installDivergenceProbe()
		}
	}
}

// allPredicted returns the union of all per-site histories, sorted.
func (b *bar) allPredicted() []vm.PageID {
	seen := make(map[vm.PageID]bool)
	var out []vm.PageID
	for _, set := range b.hist {
		for pg := range set {
			if !seen[pg] {
				seen[pg] = true
				out = append(out, pg)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// armPredictions twins (and under bar-s write-enables) the pages the
// history predicts will be written in the epoch starting at site.
func (b *bar) armPredictions(site int) {
	n := b.n
	set := b.hist[site]
	if len(set) == 0 {
		return
	}
	pages := make([]vm.PageID, 0, len(set))
	for pg := range set {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		if b.isDirty[pg] {
			continue
		}
		if b.probed(pg) {
			// A predicted write proves the page is in use; its probed
			// contents are current (updates kept landing), so disarm
			// without refetching and let the arming below proceed.
			b.clearProbe(pg)
			n.mprotect(pg, vm.Read)
		}
		if (b.mode == barModeS || b.mode == barModeA) && n.as.Prot(pg) == vm.None {
			if b.mode == barModeA {
				// Adaptive keeps trapping, so an invalid predicted page
				// (commonly one demoted to invalidate mode) is repaired by
				// the ordinary fault on demand. Fetching here would also
				// race teardown: the final barrier's release must be the
				// last time anything is owed to a peer service.
				continue
			}
			// A lossy epoch invalidated a predicted page. Write-enabling
			// the stale copy would bypass the read fault that normally
			// repairs it, so restore coherence first (bar-m repairs the
			// same situation at consume time — it cannot invalidate).
			n.ctr.StaleRefetches++
			b.fetchPage(pg)
		}
		n.makeTwin(pg)
		b.isDirty[pg] = true
		b.dirty = append(b.dirty, pg)
		if b.wrote != nil {
			b.wrote[pg] = true
			b.touchCnt[pg]++
			b.touch(pg)
		}
		if b.mode == barModeS || b.mode == barModeA {
			n.mprotect(pg, vm.ReadWrite)
		}
	}
}

// installDivergenceProbe arms the zero-cost store monitor that catches
// writes bar-m's open protections would let slip through undetected.
func (b *bar) installDivergenceProbe() {
	n := b.n
	n.writeProbe = func(pg vm.PageID) {
		if !n.as.HasTwin(pg) {
			n.fatal("bar-m: divergence: write to unpredicted page %d in overdrive", pg)
		}
	}
}

func (b *bar) iterBoundary() {
	b.iterEnd = true
	if !b.mode.overdrive() || b.odBanned {
		return
	}
	n := b.n
	switch {
	case n.iter == 1:
		// Homes migrate at the next barrier; learn from the post-migration
		// iterations.
		b.learning = true
	case n.iter == n.clu.cfg.LearnIters && !b.odActive:
		b.odPending = true
	}
	if b.mode == barModeA && n.iter >= n.clu.cfg.LearnIters {
		b.adaptDecide()
	}
}

// adaptDecide runs the adaptive protocol's per-page update/invalidate
// decision at each iteration boundary, once the learning window closed.
//
// The iteration's ledger per page splits on whether we wrote the page:
//
//   - Pages we did not write: updCnt push credit versus readCnt faults
//     those pushes satisfied (probe revalidations — exactly the misses
//     an invalidate protocol would have served with one fetch each).
//     Pushes outnumbering satisfied faults are waste — this catches
//     both multi-reader pages read less often than written and stale
//     subscriptions to pages we no longer touch at all. updCnt is
//     edge-accounted in adaptCreditUnit fixed-point: a diff from a
//     k-page flush is worth 1/k of a message, since only dropping the
//     writer's whole batch retires it. The old per-diff count let one
//     page of a big batch claim the entire message, and on batched
//     workloads (barnes, fft at full size) adaptive dropped its way
//     into fetch storms below bar-u; amortized credit keeps those
//     subscriptions while still letting batches retire jointly.
//
//   - Pages we wrote (twinned this iteration): probes cannot arm on
//     them, so the post-drop cost is bounded differently — one fetch
//     per epoch in which we touch the page after an external version
//     bump. That is at most once per push epoch (burstCnt: only an
//     external bump invalidates our copy, our own push keeps it valid)
//     and at most once per epoch we touch it at all (touchCnt write
//     epochs plus readCnt probe-metered reads); the smaller bounds it.
//     Credit above the bound means the subscription costs more message
//     flow than fetching the merged copy at each miss would. When the
//     touch bound undercuts the push-epoch bound it rests on a single
//     iteration's access pattern — weaker evidence, and on dynamic
//     sharing (barnes) a page idle this iteration is hot again the
//     next while a drop is forever — so that path demands half again
//     the credit before committing.
//
// A losing page is unsubscribed: queue a copyset drop for our next
// arrival (writers prune their push sets, the home pins us out of the
// copyset) and pin it in inval mode — later misses fetch with NoSub,
// never re-subscribing. Ties keep the subscription and the update
// protocol's data-volume advantage (a diff is smaller than a page) —
// except on wrote pages the probe proved unread, where the tied
// message flow buys content nobody looks at and the fetch path at
// least stops paying for co-writers' diffs.
//
// A misjudged drop costs fetch-per-miss from then on, the invalidate
// protocol's own price, never correctness: version news still invalidates
// the dropped copy and the next access refetches.
func (b *bar) adaptDecide() {
	n := b.n
	for _, pg := range b.accList {
		b.accSeen[pg] = false
		upd, read, burst := b.updCnt[pg], b.readCnt[pg], b.burstCnt[pg]
		touch := b.touchCnt[pg]
		b.touchCnt[pg] = 0
		wrote := b.wrote[pg] || b.isDirty[pg]
		b.updCnt[pg], b.readCnt[pg], b.burstCnt[pg], b.wrote[pg] = 0, 0, 0, false
		if !b.subscr[pg] || b.home[pg] == n.id || b.isHomeDirty[pg] {
			continue
		}
		if wrote {
			// The post-drop cost is one fetch per epoch in which we touch
			// the page after an external version bump: at most once per
			// push epoch (burst, only external bumps invalidate our copy),
			// and at most once per epoch we touch it at all — writes we
			// twinned (touch) plus reads the probe metered (read). The
			// smaller of the two bounds it.
			bound, margin := burst, int32(adaptCreditUnit)
			if touch+read < bound {
				// Tightening below the push-epoch bound leans on one
				// iteration's touch pattern alone — weaker evidence, and
				// dynamic sharing (barnes) makes marginal drops costly
				// since a drop is forever. Demand half again the credit.
				bound = touch + read
				margin = 3 * adaptCreditUnit / 2
			}
			if upd < bound*margin || (upd == bound*margin && read > 0) {
				continue
			}
		} else {
			// The read rule is only trustworthy once the probe has metered
			// a full iteration: probes arm at update deliveries, so a page
			// probed at its iteration's last release shows read=0 at the
			// very next boundary even when every iteration reads it (the
			// reading phase comes after the boundary). A late-armed probe
			// that already counted reads has proven itself live, so it may
			// commit one boundary early; a silent one has proven nothing.
			if b.armIter[pg] < 0 || (int(b.armIter[pg]) >= n.iter-1 && read == 0) {
				continue
			}
			if upd <= read*adaptCreditUnit {
				continue
			}
		}
		if b.probe[pg] {
			// The probe proved the page unread; its contents are current
			// this instant, so leave them readable until version news
			// invalidates them.
			b.clearProbe(pg)
			n.mprotect(pg, vm.Read)
		}
		b.subscr[pg] = false
		b.inval[pg] = true
		b.coveredAt[pg] = -1
		b.armIter[pg] = -1
		b.drops = append(b.drops, copysetRec{Page: pg, Member: n.id})
		n.ctr.ProbeDrops++
	}
	b.accList = b.accList[:0]
}

// --- service path -----------------------------------------------------------

func (b *bar) handleRequest(pkt *netsim.Packet) {
	b.dispatchHomeReq(b.n.service, pkt)
}

// dispatchHomeReq routes a home-directed request, queueing it behind a
// pending home-role install when necessary. p is the execution context to
// charge and reply from: the service process normally, the compute process
// when draining a migration install's queue.
func (b *bar) dispatchHomeReq(p *sim.Proc, pkt *netsim.Packet) {
	n := b.n
	switch pkt.Kind {
	case mkPageReq, mkHomeFlush:
		if pg, blocked := b.firstBlockedPage(pkt); blocked {
			// The page's home role is migrating to us but the install has
			// not landed (or our own release is still in flight). Queue;
			// the install drains us.
			q := b.installing[pg]
			if q == nil {
				q = &installQueue{}
				b.installing[pg] = q
			}
			q.pkts = append(q.pkts, pkt)
			return
		}
		b.serveHomeRequest(p, pkt)
	case mkHomePull:
		pg := pkt.Data.(*homePull).Page
		p.Advance(n.clu.cm.CopyCost(n.as.PageSize()))
		data := n.as.CopyPageOut(pg)
		if n.as.HasTwin(pg) {
			// Our own next-epoch writes have begun; hand over the
			// committed (pre-write) image so contents match the version.
			data = append(data[:0], n.as.Twin(pg)...)
		}
		cs := b.copyset[pg].without(pkt.FromNode)
		rep := &homePullRep{
			Page:    pg,
			Data:    data,
			Version: b.version[pg],
			Copyset: cs,
		}
		b.copyset[pg] = copyset{}
		// Our replica stops being authoritative and nobody will update it,
		// so discard it now; a later read faults and subscribes properly.
		// An active mid-epoch writer keeps its copy — its next flush and
		// the version arithmetic reconcile it.
		if !n.as.HasTwin(pg) {
			n.mprotectSvc(pg, vm.None)
			b.subscr[pg] = false
		}
		n.replyFrom(p, pkt, mkHomePullRep, n.as.PageSize()+bytesMigrateRec, rep)
	default:
		n.fatal("bar: unexpected request kind %d", pkt.Kind)
	}
}

// serveHomeRequest handles page fetches and home flushes for a page we
// are home of. p is the execution context (see dispatchHomeReq).
func (b *bar) serveHomeRequest(p *sim.Proc, pkt *netsim.Packet) {
	n := b.n
	cm := n.clu.cm
	switch pkt.Kind {
	case mkPageReq:
		req := pkt.Data.(*pageReq)
		pg := req.Page
		p.Advance(cm.CopyCost(n.as.PageSize()))
		if b.mode.update() && pkt.FromNode != n.id && !req.NoSub {
			if b.optOut != nil {
				// A subscribing fetch is an explicit opt back in.
				b.optOut[pg] = b.optOut[pg].without(pkt.FromNode)
			}
			b.addCopysetMember(pg, pkt.FromNode)
		}
		// The requester is mid-window req.Epoch; flushes for that window are
		// labelled req.Epoch+1. Tell it which of them this snapshot already
		// merged, so its version accounting at the barrier can separate
		// absorbed bumps from genuinely missing flushes.
		var absorbed []int
		for _, m := range b.mergeLog[pg] {
			if m.epoch == req.Epoch+1 {
				absorbed = append(absorbed, m.creator)
			}
		}
		n.replyFrom(p, pkt, mkPageRep, n.as.PageSize()+bytesVersionRec+4*len(absorbed),
			&pageRep{Page: pg, Data: n.as.CopyPageOut(pg), Version: b.version[pg], Absorbed: absorbed})
	case mkHomeFlush:
		hf := pkt.Data.(*homeFlush)
		ack := &homeFlushAck{}
		for _, dm := range hf.Diffs {
			pg := dm.Notice.Page
			p.Advance(cm.DiffApplyCost(dm.Diff.Size()))
			// Re-check the twin after Advance: advancing yields to the
			// compute process, which may diff-and-discard (or create) the
			// twin meanwhile.
			n.as.ApplyDiff(dm.Diff)
			if n.as.HasTwin(pg) {
				// We are mid-epoch writers of this page ourselves. Keep
				// the twin in sync so our own diff stays confined to our
				// own modifications instead of re-propagating this one.
				dm.Diff.Apply(n.as.Twin(pg))
				p.Advance(cm.DiffApplyCost(dm.Diff.Size()))
			}
			b.version[pg]++
			b.vcache[pg] = b.version[pg]
			b.logMerge(pg, hf.Epoch, dm.Notice.Creator)
			ack.Versions = append(ack.Versions, pageVersion{Page: pg, Version: b.version[pg]})
			if b.mode.update() && hf.Epoch > 1 &&
				!(b.optOut != nil && b.optOut[pg].has(dm.Notice.Creator)) {
				// Writers cache the page: they belong in its copyset. The
				// initialization epoch is excluded — node 0 typically
				// populates every array once, and enrolling it everywhere
				// would defeat the home effect with useless updates. Members
				// that opted out of updates stay out.
				b.addCopysetMember(pg, dm.Notice.Creator)
			}
		}
		n.replyFrom(p, pkt, mkHomeFlushAck, len(ack.Versions)*bytesVersionRec, ack)
	}
}

// absorbedHas reports whether creator is in the fetched snapshot's
// absorbed list (tiny: linear scan).
func absorbedHas(abs []int, creator int) bool {
	for _, c := range abs {
		if c == creator {
			return true
		}
	}
	return false
}

// logMerge records that creator's epoch-labelled diff was merged into our
// authoritative copy of pg, pruning entries no fetch can still ask about:
// an epoch-M merge implies every node has left the windows whose requests
// would need entries older than M.
func (b *bar) logMerge(pg vm.PageID, epoch, creator int) {
	log := b.mergeLog[pg]
	if len(log) > 0 && log[0].epoch < epoch {
		keep := log[:0]
		for _, m := range log {
			if m.epoch >= epoch {
				keep = append(keep, m)
			}
		}
		log = keep
	}
	b.mergeLog[pg] = append(log, mergeRec{epoch: epoch, creator: creator})
}

// setCovered lowers the page's push-coverage epoch.
func (b *bar) setCovered(pg vm.PageID, epoch int) {
	if b.coveredAt[pg] < 0 || epoch < b.coveredAt[pg] {
		b.coveredAt[pg] = epoch
	}
}

func (b *bar) addCopysetMember(pg vm.PageID, member int) {
	if b.copyset[pg].has(member) {
		return
	}
	b.copyset[pg].add(member)
	b.csNews = append(b.csNews, copysetRec{Page: pg, Member: member})
}

// --- crash-stop recovery ----------------------------------------------------

// ckptWrite cuts this node's recoverable bar-family state: the
// authoritative image, version and copyset of every home page whose
// version moved since the last cut. Yield-free (writePage takes no
// simulated time; the caller charges the returned bytes later).
func (b *bar) ckptWrite(seq int) (items, bytes int) {
	n := b.n
	ck := n.clu.ckpt
	ps := n.as.PageSize()
	for pg := range b.home {
		if b.home[pg] != n.id || b.version[pg] == b.ckptVer[pg] {
			continue
		}
		bytes += ck.writePage(vm.PageID(pg), n.as.Mem[pg*ps:(pg+1)*ps],
			b.version[pg], b.copyset[pg], seq, n.id)
		b.ckptVer[pg] = b.version[pg]
		items++
	}
	return items, bytes
}

// restoreCkpt seeds a fresh bar instance from the checkpoint store after
// a crash. An immediate (in-place) restart re-installs the home pages of
// its own pre-release cut — the release is then replayed against them —
// while a demoted rejoiner owns nothing and refetches every page on
// demand from its re-elected homes. Yield-free.
func (b *bar) restoreCkpt(int) (bytes int) {
	n := b.n
	ck := n.clu.ckpt
	copy(b.home, ck.homeSnapshot())
	b.odBanned = true
	if n.crashRule.RestartAfter != 0 {
		return 0
	}
	ps := n.as.PageSize()
	for _, pg := range ck.homedCkpt(n.id) {
		data, ver, cs, ok := ck.readPage(pg)
		if !ok {
			continue
		}
		// The release about to be replayed may migrate this page away; our
		// pre-release cut is authoritative until it does.
		b.home[pg] = n.id
		copy(n.as.Mem[int(pg)*ps:(int(pg)+1)*ps], data)
		b.version[pg] = ver
		b.vcache[pg] = ver
		b.ckptVer[pg] = ver
		b.copyset[pg] = cs.without(n.id)
		n.as.SetProt(pg, vm.Read)
		bytes += len(data)
	}
	return bytes
}

// onCrash prunes a freshly dead peer from every consumer set: it caches
// nothing anymore, and updates pushed its way would be blackholed waste.
func (b *bar) onCrash(_ *sim.Proc, dead, _ int) {
	for pg := range b.copyset {
		b.copyset[pg] = b.copyset[pg].without(dead)
		b.wcopy[pg] = b.wcopy[pg].without(dead)
	}
}

// firstBlockedPage reports the first page in a queueable request whose
// home role has not settled on this node.
func (b *bar) firstBlockedPage(pkt *netsim.Packet) (vm.PageID, bool) {
	blocked := func(pg vm.PageID) bool {
		return b.home[pg] != b.n.id || b.installing[pg] != nil
	}
	switch pkt.Kind {
	case mkPageReq:
		pg := pkt.Data.(*pageReq).Page
		return pg, blocked(pg)
	case mkHomeFlush:
		for _, dm := range pkt.Data.(*homeFlush).Diffs {
			if blocked(dm.Notice.Page) {
				return dm.Notice.Page, true
			}
		}
		return 0, false
	}
	panic("core: firstBlockedPage on non-queueable kind")
}
