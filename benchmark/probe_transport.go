package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"godsm/internal/netsim"
	"godsm/internal/transport"
)

// The transport-only ping harness: the workload's own backend, built by
// transport.New with no DSM above it. Frames are opaque to a transport,
// so the harness sends zero-filled ones of the size under test. All
// traffic crosses the host's loopback interface or in-process channels;
// nothing here measures a real link.

// echoRTT sends one frame of size bytes from node 0 to node 1, whose
// deliver callback sends it straight back, one frame in flight, and
// returns µs per round trip. A frame that never returns fails the probe
// at probeDeadline instead of hanging it.
func echoRTT(e *probeEnv, size int) ([]float64, error) {
	tr, err := transport.New(e.w.transport, 2, 1)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	a, b := transport.Addr{Node: 0}, transport.Addr{Node: 1}
	back := make(chan struct{}, 1)
	err = tr.Start(func(to transport.Addr, frame []byte) {
		if to == b {
			_ = tr.Send(b, a, frame) // a failed echo shows as a missing reply
			return
		}
		back <- struct{}{}
	})
	if err != nil {
		return nil, err
	}
	frame := make([]byte, size)
	deadline := time.NewTimer(probeDeadline)
	defer deadline.Stop()
	roundTrip := func() error {
		if err := tr.Send(a, b, frame); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-deadline.C:
			return fmt.Errorf("%s: %d-byte echo did not return within %v", e.w.transport, size, probeDeadline)
		}
	}
	for i := 0; i < 8; i++ { // dial lazily-opened connections, size buffers
		if err := roundTrip(); err != nil {
			return nil, err
		}
	}
	var us []float64
	begin := time.Now()
	for len(us) < e.minSamples && time.Since(begin) < e.budget {
		start := time.Now()
		if err := roundTrip(); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return us, nil
}

func setRTT(e *probeEnv, name string, us []float64) {
	asc := sorted(us)
	e.out.setNote(name+"_p50", percentile(asc, 0.50), fmt.Sprintf("n=%d", len(us)))
	e.out.setNote(name+"_p99", percentile(asc, 0.99), fmt.Sprintf("n=%d, %d beyond", len(us), beyond(len(us), 0.99)))
}

// probeRTTSmall is the 64-byte echo: on udp and tcp a frame this small
// takes the batching path and waits for the flush timer.
var probeRTTSmall = probe{name: "transport 64 B echo", run: func(e *probeEnv) error {
	us, err := echoRTT(e, 64)
	if err != nil {
		return err
	}
	setRTT(e, "transport.rtt_small_us", us)
	return nil
}}

// probeRTTPage is the 8 300-byte echo, a page reply's size: on udp it is
// above the batching threshold and goes out at once as a fragment.
var probeRTTPage = probe{name: "transport 8300 B echo", run: func(e *probeEnv) error {
	us, err := echoRTT(e, 8300)
	if err != nil {
		return err
	}
	setRTT(e, "transport.rtt_page_us", us)
	return nil
}}

// probeStream pushes 64-byte frames one way with 32 in flight and counts
// what arrives against what was sent. The receiver hands a token back
// in-process for every frame; a sender that waits longer than streamStall
// for one writes the frames in flight off as lost and carries on.
var probeStream = probe{name: "transport one-way stream", run: func(e *probeEnv) error {
	const (
		window      = 32
		streamStall = 200 * time.Millisecond
	)
	tr, err := transport.New(e.w.transport, 2, 1)
	if err != nil {
		return err
	}
	defer tr.Close()
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	var received atomic.Int64
	err = tr.Start(func(transport.Addr, []byte) {
		received.Add(1)
		select {
		case tokens <- struct{}{}:
		default: // a frame already written off arrived after all
		}
	})
	if err != nil {
		return err
	}
	a, b := transport.Addr{Node: 0}, transport.Addr{Node: 1}
	frame := make([]byte, 64)
	stall := time.NewTimer(streamStall)
	defer stall.Stop()
	// take gets a token, waiting up to streamStall for one.
	take := func() bool {
		select {
		case <-tokens:
			return true
		default:
		}
		if !stall.Stop() {
			select {
			case <-stall.C:
			default:
			}
		}
		stall.Reset(streamStall)
		select {
		case <-tokens:
			return true
		case <-stall.C:
			return false
		}
	}
	var sent, writtenOff int64
	maxFrames := int64(e.minSamples) * 100
	begin := time.Now()
	for sent < maxFrames && time.Since(begin) < e.budget {
		if !take() {
			// Nothing came back: the window is lost. Reopen it, less the
			// slot this iteration's frame takes.
			n := sent - received.Load() - writtenOff
			writtenOff += n
			for ; n > 1; n-- {
				select {
				case tokens <- struct{}{}:
				default:
				}
			}
		}
		if err := tr.Send(a, b, frame); err != nil {
			return err
		}
		sent++
	}
	elapsed := time.Since(begin)
	arrived := received.Load()
	for wait := time.Now(); received.Load() < sent && time.Since(wait) < streamStall; {
		time.Sleep(time.Millisecond)
	}
	note := fmt.Sprintf("%d frames sent", sent)
	e.out.setNote("transport.stream_frames_per_s", float64(arrived)/elapsed.Seconds(), note)
	e.out.setNote("transport.stream_lost", float64(sent-received.Load()), note)
	return nil
}}

// probeOpenClose times what every run pays before its first message:
// building, starting and closing a transport for 4 nodes × 2 ports.
var probeOpenClose = probe{name: "transport open+close", run: func(e *probeEnv) error {
	var failed error
	ns := e.sample(1, func() {
		tr, err := transport.New(e.w.transport, 4, netsim.NumPorts)
		if err != nil {
			failed = err
			return
		}
		if err := tr.Start(func(transport.Addr, []byte) {}); err != nil {
			failed = err
		}
		if err := tr.Close(); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	e.out.setNote("transport.open_close_us", median(ns)/1e3, fmt.Sprintf("n=%d", len(ns)))
	return nil
}}
