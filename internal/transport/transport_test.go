package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

func collectors(nodes, ports int) (DeliverFunc, func(to Addr) [][]byte) {
	var mu sync.Mutex
	got := make(map[Addr][][]byte)
	deliver := func(to Addr, frame []byte) {
		mu.Lock()
		got[to] = append(got[to], frame)
		mu.Unlock()
	}
	read := func(to Addr) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), got[to]...)
	}
	return deliver, read
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for delivery")
		}
		time.Sleep(time.Millisecond)
	}
}

func testBasicDelivery(t *testing.T, kind string) {
	tr, err := New(kind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 2)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{Node: 0, Port: 0}
	dst := Addr{Node: 1, Port: 1}
	want := []byte("hello frame")
	if err := tr.Send(src, dst, want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(read(dst)) == 1 })
	if got := read(dst)[0]; !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if n := len(read(Addr{Node: 1, Port: 0})); n != 0 {
		t.Fatalf("misdelivered %d frames", n)
	}
}

func TestMemBasicDelivery(t *testing.T) { testBasicDelivery(t, KindMem) }
func TestUDPBasicDelivery(t *testing.T) { testBasicDelivery(t, KindUDP) }

// The caller's slice must not be aliased by the delivered frame.
func testSendCopies(t *testing.T, kind string) {
	tr, err := New(kind, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(1, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	a := Addr{}
	frame := []byte("original")
	if err := tr.Send(a, a, frame); err != nil {
		t.Fatal(err)
	}
	copy(frame, "MUTATED!") // sender scribbles after Send returns
	waitFor(t, func() bool { return len(read(a)) == 1 })
	if got := read(a)[0]; !bytes.Equal(got, []byte("original")) {
		t.Fatalf("delivered frame aliases sender buffer: %q", got)
	}
}

func TestMemSendCopies(t *testing.T) { testSendCopies(t, KindMem) }
func TestUDPSendCopies(t *testing.T) { testSendCopies(t, KindUDP) }

// stampFrame overwrites buf with a frame of size bytes (>= 12) that
// describes itself: its sequence number, its own length, then bytes derived
// from both. A delivered frame that mixes two sends cannot pass checkStamp.
func stampFrame(buf []byte, seq uint64, size int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	for i := len(buf); i < size; i++ {
		buf = append(buf, byte(seq)+byte(i)*31)
	}
	return buf
}

// checkStamp returns the sequence number of an intact stampFrame frame.
func checkStamp(frame []byte) (uint64, error) {
	if len(frame) < 12 {
		return 0, fmt.Errorf("frame of %d bytes is too short to carry a stamp", len(frame))
	}
	seq := binary.LittleEndian.Uint64(frame)
	if size := binary.LittleEndian.Uint32(frame[8:]); int(size) != len(frame) {
		return seq, fmt.Errorf("frame %d says %d bytes, carries %d", seq, size, len(frame))
	}
	for i := 12; i < len(frame); i++ {
		if want := byte(seq) + byte(i)*31; frame[i] != want {
			return seq, fmt.Errorf("frame %d byte %d = %#x, want %#x", seq, i, frame[i], want)
		}
	}
	return seq, nil
}

// The send path encodes every frame of a node into one scratch buffer and
// overwrites it as soon as Send returns (netsim.sendReal). Hold each
// backend to that pattern on every internal path a frame can take: udp's
// coalesced batch (< udpBatchMax), its single- and multi-fragment
// datagrams, and tcp frames on either side of tcpBatchBytes.
func testScratchReuse(t *testing.T, kind string) {
	tr, err := New(kind, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src, dst := Addr{Node: 0}, Addr{Node: 1}
	delivered := func() int { return len(read(dst)) }
	sizes := []int{
		12, 64, 700, udpBatchMax - 1, // udp batch
		udpBatchMax, 9000, udpFragSize, // udp single fragment
		udpFragSize + 1, tcpBatchBytes + 5000, 2*udpFragSize + 77, // udp multi-fragment, tcp past the batch limit
	}
	const n = 1200
	var scratch []byte
	lost := 0 // udp only: frames a pacing timeout wrote off
	for seq := 0; seq < n; seq++ {
		scratch = stampFrame(scratch, uint64(seq), sizes[seq%len(sizes)])
		if err := tr.Send(src, dst, scratch); err != nil {
			t.Fatal(err)
		}
		for i := range scratch {
			scratch[i] = 0xEE // the next encode, arriving at once
		}
		if kind == KindUDP {
			// Loopback datagrams drop once the socket buffer fills: keep
			// at most a few frames in flight, and stop waiting for ones
			// that are evidently gone.
			deadline := time.Now().Add(50 * time.Millisecond)
			for seq+1-lost-delivered() > 8 {
				if time.Now().After(deadline) {
					lost = seq + 1 - delivered()
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	if kind != KindUDP {
		waitFor(t, func() bool { return delivered() == n })
	} else {
		time.Sleep(20 * time.Millisecond) // let the last batch flush
	}
	got := read(dst)
	seen := make(map[int]int) // size -> intact frames delivered
	for i, frame := range got {
		seq, err := checkStamp(frame)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if kind != KindUDP && seq != uint64(i) {
			t.Fatalf("delivery %d carries frame %d: reordered or lost", i, seq)
		}
		seen[len(frame)]++
	}
	for _, size := range sizes {
		if seen[size] == 0 {
			t.Errorf("no %d-byte frame was delivered", size)
		}
	}
	if kind == KindUDP {
		t.Logf("udp delivered %d of %d frames", len(got), n)
	}
}

func TestMemScratchReuse(t *testing.T) { testScratchReuse(t, KindMem) }
func TestUDPScratchReuse(t *testing.T) { testScratchReuse(t, KindUDP) }
func TestTCPScratchReuse(t *testing.T) { testScratchReuse(t, KindTCP) }

// A frame bigger than one datagram must survive fragmentation.
func TestUDPFragmentation(t *testing.T) {
	tr, err := New(KindUDP, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(1, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	a := Addr{}
	want := make([]byte, 3*udpFragSize+137) // 4 fragments
	for i := range want {
		want[i] = byte(i * 31)
	}
	// Loopback fragments rarely drop, but retry a few times to be safe.
	for attempt := 0; attempt < 10; attempt++ {
		if err := tr.Send(a, a, want); err != nil {
			t.Fatal(err)
		}
		ok := func() bool { return len(read(a)) > 0 }
		deadline := time.Now().Add(time.Second)
		for !ok() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if ok() {
			break
		}
	}
	frames := read(a)
	if len(frames) == 0 {
		t.Fatal("fragmented frame never reassembled")
	}
	if !bytes.Equal(frames[0], want) {
		t.Fatalf("reassembled frame differs: %d bytes vs %d", len(frames[0]), len(want))
	}
}

// mem preserves per-pair ordering and delivers everything.
func TestMemOrderedDelivery(t *testing.T) {
	tr, err := New(KindMem, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{Node: 0}
	dst := Addr{Node: 1}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Send(src, dst, []byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read(dst)) == n })
	for i, f := range read(dst) {
		if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := New("carrier-pigeon", 2, 2); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func testBadAddress(t *testing.T, kind string) {
	tr, err := New(kind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Addr{}, Addr{Node: 9}, []byte("x")); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := tr.Send(Addr{Node: 9}, Addr{}, []byte("x")); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestMemBadAddress(t *testing.T) { testBadAddress(t, KindMem) }
func TestUDPBadAddress(t *testing.T) { testBadAddress(t, KindUDP) }

func TestCloseUnblocksSend(t *testing.T) {
	tr, err := New(KindMem, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: fill the queue, then Close must unblock the sender.
	a := Addr{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < memQueueDepth+10; i++ {
			if err := tr.Send(a, a, []byte("x")); err != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked past Close")
	}
}

// The queue is far shallower than a burst can be: a sender that outruns a
// slow receiver by ten queue depths must block, not drop, reorder or
// deadlock.
func TestMemBackPressure(t *testing.T) {
	tr, err := New(KindMem, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 10 * memQueueDepth
	deliver, read := collectors(2, 1)
	if err := tr.Start(func(to Addr, frame []byte) {
		time.Sleep(20 * time.Microsecond)
		deliver(to, frame)
	}); err != nil {
		t.Fatal(err)
	}
	src, dst := Addr{Node: 0}, Addr{Node: 1}
	var scratch []byte
	for seq := uint64(0); seq < n; seq++ {
		scratch = binary.LittleEndian.AppendUint64(scratch[:0], seq)
		if err := tr.Send(src, dst, scratch); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read(dst)) == n })
	for i, frame := range read(dst) {
		if seq := binary.LittleEndian.Uint64(frame); seq != uint64(i) {
			t.Fatalf("delivery %d carries frame %d", i, seq)
		}
	}
}

func TestTCPBasicDelivery(t *testing.T) { testBasicDelivery(t, KindTCP) }
func TestTCPSendCopies(t *testing.T)    { testSendCopies(t, KindTCP) }
func TestTCPBadAddress(t *testing.T)    { testBadAddress(t, KindTCP) }

// tcp preserves per-pair ordering across batch flushes and delivers
// everything, like mem.
func TestTCPOrderedDelivery(t *testing.T) {
	tr, err := New(KindTCP, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{Node: 0}
	dst := Addr{Node: 1}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Send(src, dst, []byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read(dst)) == n })
	for i, f := range read(dst) {
		if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}

// A frame near the size ceiling crosses the stream in one piece, and
// interleaves correctly with coalesced small frames.
func TestTCPLargeFrame(t *testing.T) {
	tr, err := New(KindTCP, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(1, 2)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{}
	big := Addr{Port: 1}
	want := make([]byte, tcpBatchBytes*3)
	for i := range want {
		want[i] = byte(i * 31)
	}
	small := []byte("just a small one")
	if err := tr.Send(src, src, small); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(src, big, want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(read(big)) == 1 && len(read(src)) == 1 })
	if got := read(big)[0]; !bytes.Equal(got, want) {
		t.Fatalf("large frame differs: %d bytes vs %d", len(got), len(want))
	}
	if got := read(src)[0]; !bytes.Equal(got, small) {
		t.Fatalf("small frame differs: %q", got)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{KindSim, KindMem, KindUDP, KindTCP} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v: missing %q", names, want)
		}
	}
	e, ok := Lookup(KindSim)
	if !ok || !e.Virtual {
		t.Fatalf("Lookup(sim) = %+v, %v: want a virtual entry", e, ok)
	}
	if _, err := New(KindSim, 2, 2); err == nil {
		t.Fatal("New(sim) built a transport for the virtual backend")
	}
	for _, kind := range []string{KindMem, KindUDP, KindTCP} {
		e, ok := Lookup(kind)
		if !ok || e.Virtual || e.New == nil {
			t.Fatalf("Lookup(%s) = %+v, %v: want a real factory", kind, e, ok)
		}
	}
}
