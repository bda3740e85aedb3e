package transport

import (
	"fmt"
	"sync"

	"godsm/internal/wire"
)

// memTransport is the in-process backend: one buffered channel per
// destination endpoint drained by a pump goroutine. Reliable and ordered
// per channel, but every frame is copied on Send, so senders cannot
// alias receiver memory — the codec boundary is as real as on a socket.
type memTransport struct {
	nodes, ports int
	chans        []chan []byte // index: node*ports + port
	started      bool
	wg           sync.WaitGroup
	closeOnce    sync.Once
	closed       chan struct{}
}

// memQueueDepth is each endpoint's channel capacity. The pump moves
// frames straight into the receiver's unbounded mailbox and never waits
// on a sender, so the queue only has to absorb the frames that arrive
// between two schedulings of the pump goroutine; a sender that outruns it
// blocks in Send until the pump catches up. Every slot is zeroed at
// construction and a run builds one queue per endpoint, so a depth sized
// for a backlog that cannot form is paid for on every run.
const memQueueDepth = 64

func newMem(nodes, ports int) *memTransport {
	t := &memTransport{
		nodes:  nodes,
		ports:  ports,
		chans:  make([]chan []byte, nodes*ports),
		closed: make(chan struct{}),
	}
	for i := range t.chans {
		t.chans[i] = make(chan []byte, memQueueDepth)
	}
	return t
}

func (t *memTransport) idx(a Addr) (int, error) {
	if a.Node < 0 || a.Node >= t.nodes || a.Port < 0 || a.Port >= t.ports {
		return 0, fmt.Errorf("transport: bad address %+v", a)
	}
	return a.Node*t.ports + a.Port, nil
}

func (t *memTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return fmt.Errorf("transport: mem already started")
	}
	t.started = true
	for n := 0; n < t.nodes; n++ {
		for p := 0; p < t.ports; p++ {
			to := Addr{Node: n, Port: p}
			ch := t.chans[n*t.ports+p]
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				for {
					select {
					case frame := <-ch:
						deliver(to, frame)
					case <-t.closed:
						return
					}
				}
			}()
		}
	}
	return nil
}

func (t *memTransport) Send(from, to Addr, frame []byte) error {
	if _, err := t.idx(from); err != nil {
		return err
	}
	i, err := t.idx(to)
	if err != nil {
		return err
	}
	if len(frame) > t.MaxFrame() {
		return fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(frame), t.MaxFrame())
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	select {
	case t.chans[i] <- cp:
		return nil
	case <-t.closed:
		return fmt.Errorf("transport: mem closed")
	}
}

func (t *memTransport) MaxFrame() int { return wire.MaxFrameLen + wire.FrameLenSize }

func (t *memTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	t.wg.Wait()
	return nil
}
