package main

import (
	"context"
	"fmt"
	"time"

	"godsm"
)

// DSM-primitive probes: one synchronisation or data-movement operation of
// the engine, over the workload's own backend, on four nodes. Each body
// is SPMD and sequences its iterations with barriers; the operation under
// test runs between them and is timed on the node that performs it.
//
// Messages per operation come from the StartMeasure/StopMeasure window of
// two runs with the same iteration count — one performing the operation,
// one skipping it — so the sequencing barriers cancel out exactly. They
// follow Table 1's convention: requests count, replies do not.

const primNodes = 4

// primCtx is handed to a primitive's step on every node and iteration.
type primCtx struct {
	p    *godsm.Proc
	i    int            // iteration
	x    godsm.F64Array // one shared page
	skip bool           // control run: leave the operation out
	us   *[]float64     // this node's samples
}

// do runs the operation under test unless this is the control run, and
// records its duration when timed is set.
func (c *primCtx) do(timed bool, op func()) {
	if c.skip {
		return
	}
	if !timed {
		op()
		return
	}
	start := time.Now()
	op()
	*c.us = append(*c.us, float64(time.Since(start))/1e3)
}

// primitive is one operation to time.
type primitive struct {
	metric string // "core.lock": prints core.lock_us and, with msgs, core.lock_msgs
	msgs   bool
	proto  godsm.ProtocolKind
	// step is one iteration, called on every node; its barriers keep
	// iterations from overlapping.
	step func(c *primCtx)
}

// primRun is what one run of a primitive's body yields: the timed node's
// samples, and the messages and retransmissions inside the window.
type primRun struct {
	us            []float64
	msgs, retrans int64
}

// run executes iters iterations of the step on four nodes.
func (pr *primitive) run(e *probeEnv, iters int, skip bool) (primRun, error) {
	samples := make([][]float64, primNodes)
	body := func(p *godsm.Proc) {
		x := p.AllocF64(p.PageSize() / 8)
		if p.ID() == 0 {
			x.Set(0, 1)
		}
		c := &primCtx{p: p, x: x, skip: skip, us: &samples[p.ID()]}
		c.i = -1
		pr.step(c) // warm: first faults, lazy connections
		*c.us = (*c.us)[:0]
		// A barrier inside each edge of the window: no node performs the
		// operation before every node has opened its window, or closes it
		// while another is still at work. The control run has the same two
		// barriers, so they cancel.
		p.StartMeasure()
		p.Barrier()
		for c.i = 0; c.i < iters; c.i++ {
			pr.step(c)
		}
		p.Barrier()
		p.StopMeasure()
		p.SetResult(1)
	}
	ctx, cancel := context.WithTimeout(e.ctx, probeDeadline)
	defer cancel()
	opts := []godsm.Option{
		godsm.WithProcs(primNodes), godsm.WithProtocol(pr.proto), godsm.WithSegmentBytes(64 << 10),
	}
	if !e.w.sim() {
		opts = append(opts, godsm.WithTransport(e.w.transport))
	}
	rep, err := godsm.RunWithContext(ctx, body, opts...)
	if err != nil {
		return primRun{}, fmt.Errorf("%s over %s: %w", pr.metric, e.w.transport, err)
	}
	r := primRun{msgs: rep.Total.Messages, retrans: rep.Total.Retransmits}
	for _, s := range samples {
		r.us = append(r.us, s...)
	}
	return r, nil
}

// probe sizes the run from a short calibration — every node must know the
// iteration count before the body starts — then makes the control run and
// the measured run.
func (pr *primitive) probe(e *probeEnv) error {
	const calib = 16
	start := time.Now()
	if _, err := pr.run(e, calib, false); err != nil {
		return err
	}
	perIter := time.Since(start) / calib
	iters := min(e.minSamples, max(calib, int(e.budget/max(perIter, 1))))
	with, err := pr.run(e, iters, false)
	if err != nil {
		return err
	}
	if len(with.us) == 0 {
		return fmt.Errorf("%s: no samples", pr.metric)
	}
	e.out.setNote(pr.metric+"_us", median(with.us), fmt.Sprintf("n=%d", len(with.us)))
	if !pr.msgs {
		return nil
	}
	without, err := pr.run(e, iters, true)
	if err != nil {
		return err
	}
	// A retransmission is a message too, and what a retransmitted request
	// sets off at its receiver may be more; the count is exact only when
	// neither run had one (udp's late timers can cause some).
	retrans := with.retrans + without.retrans
	e.out.put(pr.metric+"_msgs", float64(with.msgs-without.msgs)/float64(len(with.us)),
		retrans == 0, fmt.Sprintf("%d retransmissions", retrans))
	return nil
}

func primitiveProbe(name string, pr primitive) probe {
	return probe{name: name, run: pr.probe}
}

// fetchStep: node 0 writes the page, a barrier publishes the write, node 1
// reads it. Under bar-i the read misses and fetches the page from its
// home; under lmw-i it fetches node 0's diff.
func fetchStep(c *primCtx) {
	if c.p.ID() == 0 {
		c.x.Set(0, float64(c.i+2))
	}
	c.p.Barrier()
	if c.p.ID() == 1 {
		c.do(true, func() { sinkF = c.x.Get(0) })
	}
	c.p.Barrier()
}

var (
	// An empty barrier: at four nodes three arrivals travel to the manager
	// on node 0 and three releases come back as replies.
	probeBarrier = primitiveProbe("core barrier", primitive{
		metric: "core.barrier", msgs: true, proto: godsm.BarU,
		step: func(c *primCtx) { c.do(c.p.ID() == 1, c.p.Barrier) },
	})
	// A lock handed back and forth between nodes 0 and 1, managed by
	// node 2: acquire request, forward to the last holder, grant.
	probeLock = primitiveProbe("core lock hand-off", primitive{
		metric: "core.lock", msgs: true, proto: godsm.LmwI,
		step: func(c *primCtx) {
			if c.p.ID() == (c.i+2)%2 {
				c.do(true, func() { c.p.Acquire(2); c.p.Release(2) })
			}
			c.p.Barrier()
		},
	})
	// A one-shot flag per iteration, managed by node 2: node 0 sets it,
	// node 1 waits for it.
	probeFlag = primitiveProbe("core flag", primitive{
		metric: "core.flag", msgs: true, proto: godsm.LmwI,
		step: func(c *primCtx) {
			flag := (c.i+1)*primNodes + 2
			switch c.p.ID() {
			case 0:
				c.do(false, func() { c.p.SetFlag(flag) })
			case 1:
				c.do(true, func() { c.p.WaitFlag(flag) })
			}
			c.p.Barrier()
		},
	})
	probePageFetch = primitiveProbe("core page fetch", primitive{
		metric: "core.pagefetch", msgs: true, proto: godsm.BarI, step: fetchStep,
	})
	probeDiffFetch = primitiveProbe("core diff fetch", primitive{
		metric: "core.difffetch", proto: godsm.LmwI, step: fetchStep,
	})
)

// probeAccessors times the checked loads and stores every application
// goes through, on write-enabled pages of a one-node sequential run: the
// bounds check, the protection check and the memory access, no faults.
var probeAccessors = probe{name: "core accessors", run: func(e *probeEnv) error {
	const words = 4096 // 32 KiB: cache-resident, so the check is what is timed
	const side = 64
	body := func(p *godsm.Proc) {
		a := p.AllocF64(words)
		m := p.AllocF64Matrix(side, side)
		e.out.set("core.set_ns", median(e.sample(words, func() {
			for i := 0; i < words; i++ {
				a.Set(i, float64(i))
			}
		})))
		e.out.set("core.get_ns", median(e.sample(words, func() {
			s := 0.0
			for i := 0; i < words; i++ {
				s += a.Get(i)
			}
			sinkF = s
		})))
		e.out.set("core.matrix_at_ns", median(e.sample(side*side, func() {
			s := 0.0
			for r := 0; r < side; r++ {
				for c := 0; c < side; c++ {
					s += m.At(r, c)
				}
			}
			sinkF = s
		})))
		p.SetResult(1)
	}
	_, err := godsm.RunWithContext(e.ctx, body, godsm.WithProtocol(godsm.Seq),
		godsm.WithSegmentBytes(words*8+side*side*8))
	return err
}}

// probeWriteFault times the first store to a page in an epoch under
// bar-u on one node: the software SIGSEGV, the home's dirty bookkeeping
// and the mprotect to read-write. The barrier that follows write-protects
// the pages again, so every epoch faults afresh.
var probeWriteFault = probe{name: "core write fault", run: func(e *probeEnv) error {
	const pages = 64
	body := func(p *godsm.Proc) {
		stride := p.PageSize() / 8
		a := p.AllocF64(pages * stride)
		var ns []float64
		begin := time.Now()
		for epoch := 1.0; len(ns) < e.minSamples && time.Since(begin) < e.budget; epoch++ {
			start := time.Now()
			for pg := 0; pg < pages; pg++ {
				a.Set(pg*stride, epoch)
			}
			ns = append(ns, float64(time.Since(start))/pages)
			p.Barrier()
		}
		e.out.set("core.writefault_ns", median(ns))
		p.SetResult(1)
	}
	_, err := godsm.RunWithContext(e.ctx, body, godsm.WithProcs(1), godsm.WithProtocol(godsm.BarU),
		godsm.WithSegmentBytes(pages*8192))
	return err
}}
