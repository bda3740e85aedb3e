// Package netsim provides the simulated cluster interconnect: addressed
// endpoints on top of the sim kernel, a wire cost model (latency plus
// bandwidth), and per-node traffic accounting.
//
// The model matches the paper's environment: an IBM SP-2 high-performance
// switch carrying UDP/IP, ~40 MB/s per bidirectional link, 160 µs simple
// RPCs. Endpoint CPU costs (send/recv syscalls, sigio dispatch) are charged
// by the DSM engine, not here; netsim charges only wire time.
package netsim

import (
	"fmt"
	"sync/atomic"

	"godsm/internal/cost"
	"godsm/internal/sim"
	"godsm/internal/transport"
)

// Port distinguishes the two execution contexts of a DSM node.
type Port int

const (
	// PortCompute is the application thread.
	PortCompute Port = iota
	// PortService is the protocol request handler (CVM's SIGIO context).
	// Node 0's service also hosts the barrier manager.
	PortService
	numPorts
)

// NumPorts is the number of ports per node, for sizing transports.
const NumPorts = int(numPorts)

// Packet is the payload carried by every simulated network message.
type Packet struct {
	Kind     int // protocol-defined message kind
	FromNode int
	FromPort Port
	Size     int   // modeled payload size in bytes (headers added by the model)
	Reply    bool  // replies/releases: excluded from the Messages count
	Rid      int64 // request id for retransmit/dedup; 0 = untracked
	Orig     int   // node whose reliability layer issued Rid
	// NoFault exempts the packet from fault injection. Reserved for
	// teardown control-plane messages, where an unacknowledged loss would
	// make quiescing the cluster impossible (the two-generals problem);
	// everything the protocols send during a run stays injectable.
	NoFault bool
	Data    any
}

// Traffic counts one node's outbound network activity. Messages counts
// requests, flushes and barrier arrivals; Replies counts replies and
// barrier releases, matching Table 1's convention of reporting "requests
// sent (there are an equal number of replies)". Bytes covers both.
type Traffic struct {
	Messages int64
	Replies  int64
	Bytes    int64 // payload+header bytes sent, replies included
}

// Sub returns t - o, for windowing traffic to a measurement interval.
func (t Traffic) Sub(o Traffic) Traffic {
	return Traffic{t.Messages - o.Messages, t.Replies - o.Replies, t.Bytes - o.Bytes}
}

// Net is the interconnect for a fixed-size cluster.
type Net struct {
	K       *sim.Kernel
	Model   *cost.Model
	nodes   int
	procs   [][]*sim.Proc // [node][port]
	byProc  map[int]addr  // sim proc id -> binding
	Traffic []Traffic     // per sending node

	fi *faultInjector
	// down marks crashed nodes: packets addressed to a down node are
	// blackholed at the sender. Nil unless the fault plan carries crash
	// rules, so the fault-free send path pays one nil test.
	down []atomic.Bool
	// m holds the resolved metric handles (SetMetrics); the zero value —
	// no registry — makes every observation a nil-handle no-op.
	m netMetrics
	// FaultStats counts injected faults per sending node; nil until
	// SetFaults arms a plan.
	FaultStats []FaultStats
	// OnFault, when set, observes each injected fault (for tracing).
	OnFault func(t sim.Time, from, to, kind int, class FaultClass)

	// tr carries frames for real delivery (SetTransport); nil in sim mode.
	tr transport.Transport
	// scratch is each sending node's reused frame-encode buffer on the
	// real-transport send path (see sendReal).
	scratch [][]byte
	// encodeInFlight round-trips every remote packet through the wire
	// codec under virtual time (EncodeInFlight); snapshots holds each
	// in-flight packet's Send-time encoding, keyed by the decoded copy
	// the receiver will get, for the delivery-time aliasing assertion.
	encodeInFlight bool
	snapshots      map[*Packet]aliasSnapshot
	// FrameBytes counts encoded frame bytes actually shipped per sending
	// node — the real-wire counterpart of Traffic.Bytes' modeled sizes.
	FrameBytes []int64
}

type addr struct {
	node int
	port Port
}

// New creates an interconnect for n nodes on kernel k with the given cost
// model. Endpoints must then be bound with Bind before k.Run.
func New(k *sim.Kernel, n int, m *cost.Model) *Net {
	nt := &Net{
		K:          k,
		Model:      m,
		nodes:      n,
		procs:      make([][]*sim.Proc, n),
		byProc:     make(map[int]addr),
		Traffic:    make([]Traffic, n),
		FrameBytes: make([]int64, n),
	}
	for i := range nt.procs {
		nt.procs[i] = make([]*sim.Proc, numPorts)
	}
	return nt
}

// Nodes returns the cluster size.
func (n *Net) Nodes() int { return n.nodes }

// Bind spawns a sim process for (node, port) running body.
func (n *Net) Bind(node int, port Port, name string, body func(p *sim.Proc)) *sim.Proc {
	if n.procs[node][port] != nil {
		panic(fmt.Sprintf("netsim: endpoint %d/%d bound twice", node, port))
	}
	p := n.K.Spawn(name, body)
	n.procs[node][port] = p
	n.byProc[p.ID()] = addr{node, port}
	return p
}

// Proc returns the sim process bound to (node, port).
func (n *Net) Proc(node int, port Port) *sim.Proc { return n.procs[node][port] }

// Send transmits pkt from the given sim proc to (node, port), charging wire
// time and recording traffic against the sending node. Local (same-node)
// sends are free and instantaneous: they model intra-process signaling, not
// network traffic, and are excluded from the counters.
func (n *Net) Send(from *sim.Proc, node int, port Port, pkt *Packet) {
	fromNode, fromPort := n.locate(from)
	pkt.FromNode, pkt.FromPort = fromNode, fromPort
	dst := n.procs[node][port]
	if dst == nil {
		panic(fmt.Sprintf("netsim: send to unbound endpoint %d/%d", node, port))
	}
	if node == fromNode {
		from.Send(dst.ID(), 0, pkt)
		return
	}
	if n.down != nil && n.down[node].Load() {
		// Crashed destination: the packet leaves the sender and vanishes.
		// Same-node delivery above is exempt — a node's own compute/service
		// signaling is in-process, not wire traffic, and a crashed node's
		// procs are parked or gone anyway.
		n.blackhole(from, fromNode, node, pkt)
		return
	}
	if n.tr != nil {
		n.sendReal(from, fromNode, fromPort, node, port, pkt)
		return
	}
	d := n.Model.XferTime(pkt.Size)
	if n.fi != nil && !pkt.NoFault {
		drop, dup, extra := n.fi.judge(pkt.Kind, fromNode, node)
		if drop {
			// Dropped packets never reach the wire model: like the legacy
			// UpdateLossRate path, they are excluded from Traffic.
			n.FaultStats[fromNode].Drops++
			n.fault(from, fromNode, node, pkt, FaultDrop, 0)
			return
		}
		if extra > 0 {
			n.FaultStats[fromNode].Delays++
			n.fault(from, fromNode, node, pkt, FaultDelay, extra)
			d += extra
		}
		if dup {
			n.FaultStats[fromNode].Dups++
			n.fault(from, fromNode, node, pkt, FaultDup, 0)
			n.count(fromNode, pkt)
			from.Send(dst.ID(), d+n.fi.dupJitter(fromNode), n.outbound(pkt))
		}
	}
	n.count(fromNode, pkt)
	from.Send(dst.ID(), d, n.outbound(pkt))
}

// count records one transmitted copy of pkt against the sending node.
func (n *Net) count(fromNode int, pkt *Packet) {
	if pkt.Reply {
		n.Traffic[fromNode].Replies++
	} else {
		n.Traffic[fromNode].Messages++
	}
	n.Traffic[fromNode].Bytes += int64(pkt.Size + n.Model.MsgHeader)
}

func (n *Net) fault(from *sim.Proc, fromNode, to int, pkt *Packet, class FaultClass, extra sim.Duration) {
	n.m.observeFault(class, extra)
	if n.OnFault != nil {
		n.OnFault(from.Now(), fromNode, to, pkt.Kind, class)
	}
}

// locate maps a sim proc back to its (node, port) binding.
func (n *Net) locate(p *sim.Proc) (int, Port) {
	a, ok := n.byProc[p.ID()]
	if !ok {
		panic("netsim: proc not bound to any endpoint")
	}
	return a.node, a.port
}
