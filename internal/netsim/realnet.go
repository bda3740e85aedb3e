package netsim

import (
	"bytes"
	"fmt"
	"time"

	"godsm/internal/sim"
	"godsm/internal/transport"
	"godsm/internal/wire"
)

// Real-transport mode: the same Net API carrying frames over an
// internal/transport backend instead of the virtual wire. Every remote
// packet is encoded by internal/wire on send and decoded on delivery, so
// nothing crosses nodes by pointer; the modeled Size still feeds the
// Traffic counters (keeping Table 1 honest) while FrameBytes counts what
// actually hit the wire. Requires a realtime kernel: delivery pumps run
// on transport goroutines and inject into proc mailboxes concurrently.
//
// Same-node sends stay in-process (intra-node signaling, as in sim mode)
// and timer self-sends (retry/update alarms) become real timers inside
// the kernel; only cross-node traffic rides the transport.

// SetTransport switches the interconnect to real delivery over tr and
// starts its receive pumps. Call after every Bind and before the kernel
// runs; the kernel must be realtime. Net does not close tr — the caller
// owns its lifecycle.
func (n *Net) SetTransport(tr transport.Transport) error {
	if !n.K.Realtime() {
		return fmt.Errorf("netsim: transport requires a realtime kernel")
	}
	n.tr = tr
	n.scratch = make([][]byte, n.nodes)
	return tr.Start(n.deliverFrame)
}

// EncodeInFlight arms the sim-codec mode: still virtual time, but every
// remote packet is round-tripped through the wire codec, so the receiver
// gets an independent decoded copy rather than the sender's pointers.
// Any divergence from a plain sim run exposes a sender that mutates (or
// shares mutable state through) a payload after Send — the aliasing
// hazard a real transport would turn into corruption. The mode also
// asserts the hazard directly: each packet's encoding is snapshotted at
// Send and re-encoded at its virtual delivery time, and any byte
// difference — the sender mutated the shared payload while the packet
// was in flight — cancels the run. (Mutating after delivery is legal:
// the receiver owns an independent copy by then, on a real wire and
// here alike.)
func (n *Net) EncodeInFlight() {
	n.encodeInFlight = true
	n.snapshots = make(map[*Packet]aliasSnapshot)
	n.K.OnDeliver = n.verifyAtDelivery
}

// aliasSnapshot remembers what a packet's payload encoded to at Send.
type aliasSnapshot struct {
	orig  *Packet
	frame []byte
}

// verifyAtDelivery re-encodes an in-flight packet's original payload at
// delivery time and compares against the Send-time snapshot.
func (n *Net) verifyAtDelivery(m *sim.Message) {
	pkt, ok := m.Payload.(*Packet)
	if !ok {
		return
	}
	snap, ok := n.snapshots[pkt]
	if !ok {
		return
	}
	delete(n.snapshots, pkt)
	now, err := encodeFrame(snap.orig)
	if err != nil || !bytes.Equal(now, snap.frame) {
		n.K.Cancel(fmt.Errorf(
			"netsim: aliasing hazard: node %d mutated a kind-%d payload between Send and delivery (%d bytes encoded at send, %d at delivery)",
			snap.orig.FromNode, snap.orig.Kind, len(snap.frame), len(now)))
	}
}

// appendFrame appends pkt's wire frame to buf. Encoding failure is a
// protocol-level bug (unknown kind or payload type), not an I/O fault.
func appendFrame(buf []byte, pkt *Packet) ([]byte, error) {
	h := wire.Header{
		Kind:     pkt.Kind,
		FromNode: pkt.FromNode,
		FromPort: int(pkt.FromPort),
		Reply:    pkt.Reply,
		NoFault:  pkt.NoFault,
		Size:     pkt.Size,
		Rid:      pkt.Rid,
		Orig:     pkt.Orig,
	}
	return wire.AppendFrame(buf, &h, pkt.Data)
}

// encodeFrame renders pkt as a freshly allocated wire frame, for callers
// that keep it (the EncodeInFlight snapshots).
func encodeFrame(pkt *Packet) ([]byte, error) { return appendFrame(nil, pkt) }

// packetFromFrame rebuilds the receiver-side Packet from a decoded frame.
func packetFromFrame(h wire.Header, data any) *Packet {
	return &Packet{
		Kind:     h.Kind,
		FromNode: h.FromNode,
		FromPort: Port(h.FromPort),
		Size:     h.Size,
		Reply:    h.Reply,
		Rid:      h.Rid,
		Orig:     h.Orig,
		NoFault:  h.NoFault,
		Data:     data,
	}
}

// outbound returns the packet as the receiver will see it: the packet
// itself normally, or an independent codec round-trip when EncodeInFlight
// is armed.
func (n *Net) outbound(pkt *Packet) *Packet {
	if !n.encodeInFlight {
		return pkt
	}
	frame, err := encodeFrame(pkt)
	if err != nil {
		panic(fmt.Sprintf("netsim: encode in flight: %v", err))
	}
	h, data, _, err := wire.DecodeFrame(frame)
	if err != nil {
		panic(fmt.Sprintf("netsim: decode in flight: %v", err))
	}
	out := packetFromFrame(h, data)
	if n.snapshots != nil {
		n.snapshots[out] = aliasSnapshot{orig: pkt, frame: frame}
	}
	return out
}

// sendReal ships one remote packet over the transport, applying the fault
// plan before the frame leaves (injected faults and real socket behaviour
// compose; both are recovered by the reliability layer).
//
// The frame is encoded into the sending node's scratch buffer, which the
// node's next send overwrites: transport.Send never retains its argument,
// so the only per-frame allocation on this path is the copy the backend
// makes for the receiver. One runner per node (sim.SetExclusive) makes the
// scratch, like Traffic and FrameBytes, safe without a lock.
func (n *Net) sendReal(from *sim.Proc, fromNode int, fromPort Port, node int, port Port, pkt *Packet) {
	frame, err := appendFrame(n.scratch[fromNode][:0], pkt)
	n.scratch[fromNode] = frame
	if err != nil {
		n.m.encodeErrs.Inc()
		n.K.Cancel(fmt.Errorf("netsim: encode kind %d: %w", pkt.Kind, err))
		return
	}
	src := transport.Addr{Node: fromNode, Port: int(fromPort)}
	dst := transport.Addr{Node: node, Port: int(port)}

	var extra sim.Duration
	if n.fi != nil && !pkt.NoFault {
		drop, dup, ex := n.fi.judge(pkt.Kind, fromNode, node)
		if drop {
			n.FaultStats[fromNode].Drops++
			n.fault(from, fromNode, node, pkt, FaultDrop, 0)
			return
		}
		if ex > 0 {
			n.FaultStats[fromNode].Delays++
			n.fault(from, fromNode, node, pkt, FaultDelay, ex)
			extra = ex
		}
		if dup {
			n.FaultStats[fromNode].Dups++
			n.fault(from, fromNode, node, pkt, FaultDup, 0)
			n.count(fromNode, pkt)
			n.FrameBytes[fromNode] += int64(len(frame))
			// The duplicate trails the original by the jitter; under real
			// time the modeled jitter becomes a real timer.
			n.shipAfter(extra+n.fi.dupJitter(fromNode), src, dst, frame)
		}
	}
	n.count(fromNode, pkt)
	n.FrameBytes[fromNode] += int64(len(frame))
	if extra > 0 {
		n.shipAfter(extra, src, dst, frame)
		return
	}
	_ = n.tr.Send(src, dst, frame)
}

// shipAfter sends frame once d has passed. The timer outlives the call
// that encoded the frame, so it carries a private copy rather than the
// sender's scratch.
func (n *Net) shipAfter(d sim.Duration, src, dst transport.Addr, frame []byte) {
	held := bytes.Clone(frame)
	time.AfterFunc(time.Duration(d), func() { _ = n.tr.Send(src, dst, held) })
}

// deliverFrame is the transport's receive callback: decode, rebuild the
// packet, and inject it into the destination proc's mailbox. Runs on
// transport pump goroutines. A frame that fails to decode kills the run —
// with loopback sockets and in-process channels, corruption means a codec
// bug, not line noise.
func (n *Net) deliverFrame(to transport.Addr, frame []byte) {
	h, data, _, err := wire.DecodeFrame(frame)
	if err != nil {
		n.m.decodeErrs.Inc()
		n.K.Cancel(fmt.Errorf("netsim: frame for node %d port %d undecodable: %w", to.Node, to.Port, err))
		return
	}
	if to.Node < 0 || to.Node >= n.nodes || to.Port < 0 || Port(to.Port) >= numPorts {
		n.K.Cancel(fmt.Errorf("netsim: frame for unknown endpoint %d/%d", to.Node, to.Port))
		return
	}
	dst := n.procs[to.Node][Port(to.Port)]
	pkt := packetFromFrame(h, data)
	n.K.Inject(dst.ID(), &sim.Message{From: -1, To: dst.ID(), Payload: pkt})
}
