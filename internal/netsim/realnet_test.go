package netsim

import (
	"testing"

	"godsm/internal/cost"
	"godsm/internal/sim"
	"godsm/internal/stats"
	"godsm/internal/transport"
	"godsm/internal/vm"
	"godsm/internal/wire"
)

func newMem(t *testing.T) transport.Transport {
	t.Helper()
	tr, err := transport.New(transport.KindMem, 2, NumPorts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// sendOnly cuts a backend's receive side off: frames are queued, pumped
// and dropped, so a measurement over it sees the send path alone.
type sendOnly struct{ transport.Transport }

func (s sendOnly) Start(transport.DeliverFunc) error {
	return s.Transport.Start(func(transport.Addr, []byte) {})
}

// overTransport runs sender as node 0's compute proc and receiver as node
// 1's service proc on a realtime kernel joined by tr, under plan.
func overTransport(t *testing.T, tr transport.Transport, plan *FaultPlan, sender, receiver func(*Net, *sim.Proc)) {
	t.Helper()
	k := sim.NewRealtimeKernel()
	n := New(k, 2, cost.Default())
	n.SetFaults(plan)
	n.Bind(0, PortCompute, "sender", func(p *sim.Proc) { sender(n, p) })
	n.Bind(1, PortService, "receiver", func(p *sim.Proc) { receiver(n, p) })
	if err := n.SetTransport(tr); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A remote send costs one heap allocation, the copy the receiver owns:
// the frame is encoded into the node's scratch, not into a fresh slice.
// Held on the three shapes that make up real-transport traffic — a
// barrier arrival, a two-diff update flush and an 8 KiB page reply.
func TestSendRealAllocatesOnlyTheReceiversCopy(t *testing.T) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < len(cur); i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	shapes := []*Packet{
		{Kind: wire.KindBarArrive, Size: 56, Rid: 9,
			Data: &wire.BarArrive{Site: 1, Seq: 12, Proto: &wire.BarArrivalBar{
				Versions: []wire.PageVersion{{Page: 7, Version: 3}, {Page: 8, Version: 3}},
				Written:  []vm.PageID{7, 8},
			}}},
		{Kind: wire.KindUpdateFlush, Size: 64, Rid: 9,
			Data: &wire.UpdateFlush{Epoch: 4, Diffs: []wire.DiffMsg{
				{Notice: wire.WriteNotice{Page: 3, Creator: 1, Epoch: 4}, Diff: vm.MakeDiff(3, old, cur)},
				{Notice: wire.WriteNotice{Page: 7, Creator: 2, Epoch: 4}, Diff: vm.MakeDiff(7, old, cur)},
			}}},
		{Kind: wire.KindPageRep, Size: len(cur), Reply: true,
			Data: &wire.PageRep{Page: 5, Data: cur, Version: 3, Absorbed: []int{1, 2}}},
	}
	overTransport(t, sendOnly{newMem(t)}, nil, func(n *Net, p *sim.Proc) {
		for _, pkt := range shapes {
			send := func() { n.Send(p, 1, PortService, pkt) }
			send() // grows the scratch to this shape
			frame := len(n.scratch[0])
			if allocs := testing.AllocsPerRun(200, send); allocs != 1 {
				t.Errorf("kind %d (%d-byte frame): %.0f allocations per send, want 1", pkt.Kind, frame, allocs)
			}
			// The allocator rounds a request up to its size class, by
			// less than a quarter; a second copy of the frame would double it.
			budget := float64(frame + frame/4 + 64)
			if got := stats.MeasureLoop(200, send).BytesPerOp; got > budget {
				t.Errorf("kind %d (%d-byte frame): %.0f bytes allocated per send, budget %.0f", pkt.Kind, frame, got, budget)
			}
		}
	}, func(*Net, *sim.Proc) {})
}

// A delayed or duplicated frame leaves on a timer, after the node's next
// send has overwritten the scratch it was encoded in: what arrives must
// still be the frame that was sent. Each page is filled with its own
// number, and each send reuses the scratch at once.
func TestSendRealDelayedFramesArePrivateCopies(t *testing.T) {
	const pages = 300
	plan := &FaultPlan{Seed: 5, Rules: []FaultRule{{
		From: AnyNode, To: AnyNode, Dup: 0.5, Reorder: 0.5, Delay: 2 * sim.Millisecond,
	}}}
	sent := make(chan int, 1) // frames shipped, duplicates included
	overTransport(t, newMem(t), plan, func(n *Net, p *sim.Proc) {
		for i := 0; i < pages; i++ {
			data := make([]byte, 1024)
			for j := range data {
				data[j] = byte(i)
			}
			n.Send(p, 1, PortService, &Packet{Kind: wire.KindPageRep, Size: len(data), Reply: true,
				Data: &wire.PageRep{Page: vm.PageID(i), Data: data}})
		}
		st := n.FaultStats[0]
		if st.Dups == 0 || st.Delays == 0 {
			t.Errorf("plan injected %d dups and %d delays; the test needs both", st.Dups, st.Delays)
		}
		sent <- pages + int(st.Dups)
	}, func(_ *Net, p *sim.Proc) {
		seen := make([]int, pages)
		recv := func() {
			rep := p.Recv().Payload.(*Packet).Data.(*wire.PageRep)
			if rep.Page < 0 || int(rep.Page) >= pages {
				t.Errorf("page %d delivered, never sent", rep.Page)
				return
			}
			seen[rep.Page]++
			for j, b := range rep.Data {
				if b != byte(rep.Page) {
					t.Errorf("page %d byte %d = %#x, want %#x", rep.Page, j, b, byte(rep.Page))
					return
				}
			}
		}
		// Nothing is dropped, so at least `pages` frames arrive; by then
		// the sender may still be running, and its total says how many
		// more to wait for.
		for i := 0; i < pages; i++ {
			recv()
		}
		for want := <-sent; want > pages; want-- {
			recv()
		}
		for pg, c := range seen {
			if c == 0 {
				t.Errorf("page %d never delivered: its frame left carrying another page", pg)
			}
		}
	})
}
