package main

import (
	"time"

	"godsm/internal/sim"
)

// pingPong bounces a message between two procs of k, each hop delayed by
// delay, and returns ns of host time per round trip, one value per batch.
// The pinging proc owns the stopping rule and tells the other side with a
// false payload.
func pingPong(k *sim.Kernel, delay sim.Duration, e *probeEnv) ([]float64, error) {
	const batch = 100
	var ns []float64
	k.Spawn("ping", func(p *sim.Proc) {
		begin := time.Now()
		for len(ns) < e.minSamples && time.Since(begin) < e.budget {
			start := time.Now()
			for i := 0; i < batch; i++ {
				p.Send(1, delay, true)
				p.Recv()
			}
			ns = append(ns, float64(time.Since(start))/batch)
		}
		p.Send(1, delay, false)
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for p.Recv().Payload.(bool) {
			p.Send(0, delay, true)
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	return ns, nil
}

// advanceEvents runs procs procs that each Advance iters times by
// differing amounts, so their timers interleave in the heap.
func advanceEvents(procs, iters int) error {
	k := sim.NewKernel()
	for id := 0; id < procs; id++ {
		k.Spawn("adv", func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				p.Advance(sim.Duration(1+(id*7+i)%13) * sim.Microsecond)
			}
		})
	}
	return k.Run()
}

// probeSimKernel times the sequential discrete-event kernel alone: a
// Send/Recv round trip between two procs, and one Advance event with 8
// and with 128 procs in the heap (the paper's cluster and the 64-node
// cell's 128 goroutines).
var probeSimKernel = probe{name: "sim kernel", run: func(e *probeEnv) error {
	ns, err := pingPong(sim.NewKernel(), sim.Microsecond, e)
	if err != nil {
		return err
	}
	e.out.set("sim.pingpong_ns", median(ns))
	for _, c := range []struct {
		name         string
		procs, iters int
	}{
		{"sim.advance8_ns", 8, 1024},
		{"sim.advance128_ns", 128, 64},
	} {
		var runErr error
		ns := e.sample(c.procs*c.iters, func() {
			if err := advanceEvents(c.procs, c.iters); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return runErr
		}
		e.out.set(c.name, median(ns))
	}
	return nil
}}

// probeRTKernel times the realtime kernel's mailboxes alone: the same
// round trip between two goroutine-backed procs against the wall clock.
// Zero delay: a delayed realtime Send is a real timer, which is the
// transport probes' subject, not the mailbox's.
var probeRTKernel = probe{name: "realtime kernel", run: func(e *probeEnv) error {
	ns, err := pingPong(sim.NewRealtimeKernel(), 0, e)
	if err != nil {
		return err
	}
	e.out.set("sim.rt_pingpong_ns", median(ns))
	return nil
}}
