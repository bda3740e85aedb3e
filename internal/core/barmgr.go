package core

import (
	"godsm/internal/netsim"
	"godsm/internal/trace"
)

// barMgr is the centralized barrier manager, hosted by node 0's service
// process (CVM's master). Arrival messages piggyback protocol payloads and
// reduction contributions; the release fan-out carries per-node protocol
// payloads (write notices, version maps, copyset and migration notices,
// expected-update counts) and the combined reduction result.
//
// Under fault injection the manager is retransmit-aware: replayed arrivals
// for the episode in progress are absorbed, and arrivals for an episode
// already released (the node's release was lost, so it retransmitted) are
// answered by re-sending that node's cached release.
//
// Under a crash plan the manager is additionally membership-aware: an
// episode completes when every node that can still arrive has arrived —
// crashed nodes are not waited for, a node whose dead window ends at this
// release is granted a restart, and nodes that have finished their whole
// run (doneSeen) are excluded so a restarted straggler can drain its
// missed iterations alone.
type barMgr struct {
	clu      *cluster
	arrivals []*barArrive
	count    int

	relSeq  int              // newest released barrier sequence (-1 = none)
	arrRids []int64          // per node: rid of the current episode's arrival
	cached  []*netsim.Packet // per node: release packet of episode relSeq
}

func newBarMgr(c *cluster) *barMgr {
	return &barMgr{
		clu:      c,
		arrivals: make([]*barArrive, c.cfg.Procs),
		relSeq:   -1,
		arrRids:  make([]int64, c.cfg.Procs),
		cached:   make([]*netsim.Packet, c.cfg.Procs),
	}
}

// handle processes one arrival on node 0's service path, releasing the
// episode once every expected node has arrived.
func (m *barMgr) handle(n0 *node, pkt *netsim.Packet) {
	a := pkt.Data.(*barArrive)
	if m.clu.faultsOn {
		if prev := m.arrivals[a.From]; prev != nil && prev.Seq == a.Seq {
			// Replay of an arrival already recorded for this episode.
			n0.ctr.DupSuppressed++
			n0.trcSvc(trace.DupSuppress, -1, int64(mkBarArrive))
			return
		}
		if a.Seq <= m.relSeq {
			// Arrival for an episode already released: the node never got
			// its release and is retransmitting. Re-send the cached one.
			n0.ctr.DupSuppressed++
			n0.trcSvc(trace.DupSuppress, -1, int64(mkBarArrive))
			if c := m.cached[a.From]; c != nil && c.Data.(*barRelease).Seq == a.Seq {
				if a.From != n0.id {
					n0.service.Advance(m.clu.cm.SendCPU)
				}
				m.clu.net.Send(n0.service, a.From, netsim.PortCompute, c)
			}
			return
		}
	}
	if m.arrivals[a.From] != nil {
		n0.fatal("double barrier arrival from node %d", a.From)
	}
	m.arrivals[a.From] = a
	m.arrRids[a.From] = pkt.Rid
	m.count++
	m.maybeRelease(n0)
}

// expected returns the number of arrivals that completes barrier seq
// under the crash plan: every node neither dead at that barrier nor
// already finished with its whole run. Only valid with clu.cp armed.
func (m *barMgr) expected(seq int) int {
	c := m.clu
	exp := c.cfg.Procs
	for i := 0; i < c.cfg.Procs; i++ {
		if c.cp.absentAt(i, seq) {
			exp--
			continue
		}
		// doneSeen is pre-marked for never-restarted nodes at startup (for
		// the teardown count); only a real done report retires a node here —
		// a doomed node still arrives at every barrier through its epoch.
		if c.doneSeen[i] && (c.cp.rule[i] == nil || c.cp.rule[i].Restarts()) {
			exp--
		}
	}
	return exp
}

// maybeRelease completes the pending barrier episode if every expected
// arrival is in. Called from handle and — under a crash plan — from
// handleDone, since a survivor's done report can itself complete an
// episode a lagging restarted node is already waiting on.
func (m *barMgr) maybeRelease(n0 *node) {
	if m.count == 0 {
		return
	}
	// Reference arrival: the lowest-numbered node present this episode.
	// Node 0 never crashes, but it can be done while a restarted node
	// drains its missed iterations, so arrivals[0] may be nil.
	var ref *barArrive
	for _, ar := range m.arrivals {
		if ar != nil {
			ref = ar
			break
		}
	}
	seq, site := ref.Seq, ref.Site
	cp := m.clu.cp
	if cp == nil {
		if m.count < m.clu.cfg.Procs {
			return
		}
	} else if m.count < m.expected(seq) {
		return
	}
	var contribs []*redContrib
	for _, ar := range m.arrivals {
		if ar == nil {
			continue
		}
		if ar.Seq != seq {
			n0.fatal("barrier mismatch: node %d at seq %d, node %d at seq %d",
				ar.From, ar.Seq, ref.From, seq)
		}
		// A restarted node replays iterations the survivors moved past, so
		// its call-site index may legitimately differ from theirs.
		if ar.Site != site && (cp == nil || cp.rule[ar.From] == nil) {
			n0.fatal("barrier mismatch: node %d at seq %d site %d, node %d at seq %d site %d",
				ar.From, ar.Seq, ar.Site, ref.From, seq, site)
		}
		contribs = append(contribs, ar.Red)
	}
	red := combineReds(contribs)
	rels, sizes := m.clu.pmgr.aggregate(site, m.arrivals)
	var released []*barArrive
	if cp != nil {
		// The fan-out below yields (Advance), so clear the episode first;
		// remember who arrived to address the releases.
		released = append([]*barArrive(nil), m.arrivals...)
	}
	for i := range m.arrivals {
		m.arrivals[i] = nil
	}
	m.count = 0
	pkts := make([]*netsim.Packet, m.clu.cfg.Procs)
	for i := 0; i < m.clu.cfg.Procs; i++ {
		if released != nil && released[i] == nil {
			continue
		}
		rel := &barRelease{Seq: seq, Proto: rels[i], Red: red}
		pkts[i] = &netsim.Packet{
			Kind:  mkBarRelease,
			Size:  bytesBarHeader + sizes[i] + redResultSize(red),
			Reply: true,
			Rid:   m.arrRids[i],
			Data:  rel,
		}
		if m.clu.faultsOn {
			m.cached[i] = pkts[i]
		}
	}
	if m.clu.cfg.BarrierFanout > 0 && cp == nil {
		m.treeRelease(n0, pkts)
	} else {
		for i, rpkt := range pkts {
			if rpkt == nil {
				continue
			}
			if i != n0.id {
				n0.service.Advance(m.clu.cm.SendCPU)
			}
			m.clu.net.Send(n0.service, i, netsim.PortCompute, rpkt)
		}
	}
	m.relSeq = seq
	if cp == nil {
		return
	}
	for node, r := range cp.rule {
		if r == nil || !r.Restarts() || r.RestartAfter == 0 || seq != r.Epoch+r.RestartAfter {
			continue
		}
		// The dead window ends with this release: bring the node back up
		// and grant its restart, naming the barrier it rejoins after.
		m.clu.net.SetDown(node, false)
		n0.service.Advance(m.clu.cm.SendCPU)
		m.clu.net.Send(n0.service, node, netsim.PortCompute, &netsim.Packet{
			Kind: mkRestart, Size: bytesBarHeader, Reply: true, NoFault: true,
			Data: &restartMsg{Seq: seq, Missed: r.RestartAfter},
		})
	}
}

// --- release relay tree (Config.BarrierFanout) --------------------------

// treeRelease sends the episode's releases down the k-ary relay tree
// rooted at the manager: node 0 delivers its own release locally, then
// sends each direct child one bundle carrying the child's whole subtree,
// paying SendCPU per subtree instead of per node. Lost or duplicated
// bundles need no tree-level recovery: an unreleased compute retransmits
// its arrival and the manager answers from its per-node release cache,
// exactly as under the flat fan-out.
func (m *barMgr) treeRelease(n0 *node, pkts []*netsim.Packet) {
	if own := pkts[n0.id]; own != nil {
		m.clu.net.Send(n0.service, n0.id, netsim.PortCompute, own)
	}
	var rels []bundleRel
	for i, rpkt := range pkts {
		if rpkt == nil || i == n0.id {
			continue
		}
		rels = append(rels, bundleRel{
			Node: i, Rid: rpkt.Rid, Size: rpkt.Size, Rel: rpkt.Data.(*barRelease),
		})
	}
	bundleFanout(n0, n0.id, rels)
}

// handleBarBundle runs on a relay node's service: deliver this node's own
// release to its compute process (a free same-node send, like the flat
// manager's own delivery) and forward the remaining entries as per-child
// sub-bundles. The filter builds a fresh slice because a fault-duplicated
// bundle replays with the same payload pointer.
func (n *node) handleBarBundle(pkt *netsim.Packet) {
	b := pkt.Data.(*barBundle)
	rest := make([]bundleRel, 0, len(b.Rels))
	for _, r := range b.Rels {
		if r.Node == n.id {
			n.clu.net.Send(n.service, n.id, netsim.PortCompute, &netsim.Packet{
				Kind: mkBarRelease, Size: r.Size, Reply: true, Rid: r.Rid, Data: r.Rel,
			})
			continue
		}
		rest = append(rest, r)
	}
	bundleFanout(n, n.id, rest)
}

// bundleFanout partitions rels among the direct children of root in the
// heap-layout k-ary tree and sends each non-empty partition as one bundle,
// charging the sender SendCPU per bundle. A bundle's modeled size is the
// sum of its entries' stand-alone release sizes.
func bundleFanout(n *node, root int, rels []bundleRel) {
	c := n.clu
	k := c.cfg.BarrierFanout
	for ci := 1; ci <= k; ci++ {
		child := root*k + ci
		if child >= c.cfg.Procs {
			break
		}
		var sub []bundleRel
		size := 0
		for _, r := range rels {
			if inSubtree(r.Node, child, k) {
				sub = append(sub, r)
				size += r.Size
			}
		}
		if len(sub) == 0 {
			continue
		}
		n.service.Advance(c.cm.SendCPU)
		c.net.Send(n.service, child, netsim.PortService, &netsim.Packet{
			Kind: mkBarBundle, Size: size, Data: &barBundle{Rels: sub},
		})
	}
}

// inSubtree reports whether node m lies in the subtree rooted at c of the
// heap-layout k-ary tree (children of x are k*x+1 .. k*x+k).
func inSubtree(m, c, k int) bool {
	for m > c {
		m = (m - 1) / k
	}
	return m == c
}
