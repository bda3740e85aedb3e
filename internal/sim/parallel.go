package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharded parallel execution of the DES kernel.
//
// The kernel's events are partitioned into per-shard heaps (one shard per
// cluster node; netsim assigns every proc bound to a node to that node's
// shard). Execution proceeds in bulk-synchronous conservative windows:
//
//	T := min next-event time across all shard heaps
//	H := T + lookahead
//
// where lookahead is the minimum cross-shard delivery delay (netsim's
// minimum wire time, Model.XferTime(0)). Every shard whose next event falls
// before H drains its heap up to H on a worker goroutine, including events
// it generates for itself mid-window; events for other shards are appended
// to the destination shard's inbox and merged at the window barrier.
//
// Why this reproduces the sequential event order bit-for-bit: an event
// created during window w is pushed at a proc clock now >= T with a
// cross-shard delay >= lookahead, so it arrives at or after H — no event
// created inside a window can land inside that window on another shard
// (route panics if the invariant is ever violated). Same-shard causality is
// handled by draining the local heap in comparator order, exactly as the
// sequential loop would. So within a window the shards are independent, and
// the per-proc sequence of delivered messages and timer wakeups — the only
// channel through which procs observe each other — is identical to the
// sequential kernel's. The comparator key (at, pushAt, from, seq) is
// content-derived (sim.go), so equal-time ties resolve identically no
// matter which goroutine pushed first in wall time.
//
// Procs are hosted exactly as on the sequential kernel (coroutines switched
// to by Proc.resume); a shard's procs are resumed by whichever worker runs
// the shard in that window, never by two at once.
type parState struct {
	k         *Kernel
	workers   int
	lookahead Duration
	shards    []*shard

	// horizon is the current window's exclusive upper bound H. Written by
	// the coordinator between barriers; reads on shard goroutines are
	// ordered by the work-channel handoff.
	horizon Time

	failMu  sync.Mutex
	failErr error
	failed  atomic.Bool
	// panicked is the first panic a shard step raised (a proc body's
	// *ProcPanic, usually); the coordinator re-raises it on Run's goroutine.
	panicked any
}

// shard owns the procs and pending events of one cluster node. Outside its
// window execution it is touched only by the coordinator; inside, only by
// the one worker goroutine running it — except inbox, which other shards
// append to under inMu.
type shard struct {
	k       *Kernel
	id      int
	procs   []*Proc
	events  eventHeap
	live    int
	started bool

	inMu  sync.Mutex
	inbox []event
}

// NewParallelKernel returns a kernel that executes with the given number of
// worker goroutines (<=0 means GOMAXPROCS). Procs must be assigned to
// shards with SetShard and a positive lookahead armed with SetLookahead
// before Run.
func NewParallelKernel(workers int) *Kernel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := NewKernel()
	k.par = &parState{k: k, workers: workers}
	return k
}

// Parallel reports whether the kernel runs the sharded parallel scheduler.
func (k *Kernel) Parallel() bool { return k.par != nil }

// Workers returns the parallel kernel's worker count (0 if sequential).
func (k *Kernel) Workers() int {
	if k.par == nil {
		return 0
	}
	return k.par.workers
}

// SetShard assigns proc p to shard id, growing the shard set as needed.
// No-op on a non-parallel kernel, so callers can assign unconditionally.
// Procs sharing mutable Go state (netsim: the ports of one node) must share
// a shard; zero-delay sends are only legal within a shard.
func (k *Kernel) SetShard(p *Proc, id int) {
	ps := k.par
	if ps == nil {
		return
	}
	for len(ps.shards) <= id {
		ps.shards = append(ps.shards, &shard{k: k, id: len(ps.shards)})
	}
	sh := ps.shards[id]
	p.sh = sh
	sh.procs = append(sh.procs, p)
}

// SetLookahead arms the conservative lookahead: the minimum delay of any
// cross-shard Send. netsim calls this with the cost model's minimum wire
// time. No-op on a non-parallel kernel.
func (k *Kernel) SetLookahead(d Duration) {
	if k.par != nil {
		k.par.lookahead = d
	}
}

// route enqueues an event pushed by proc p: same-shard events join the
// local heap (they may still fire inside the current window); cross-shard
// events must land at or beyond the horizon and go to the destination
// shard's inbox for the barrier merge.
func (ps *parState) route(p *Proc, e event) {
	src := p.sh
	dst := ps.k.procs[e.proc].sh
	if src == nil || dst == nil {
		panic(fmt.Sprintf("sim: parallel kernel: proc %d or %d not assigned to a shard", p.id, e.proc))
	}
	if dst == src {
		src.events.push(e)
		return
	}
	if e.at < ps.horizon {
		panic(fmt.Sprintf("sim: parallel kernel: cross-shard event at %v inside window horizon %v (every cross-shard delay must be >= lookahead %v)", e.at, ps.horizon, ps.lookahead))
	}
	dst.inMu.Lock()
	dst.inbox = append(dst.inbox, e)
	dst.inMu.Unlock()
}

func (ps *parState) fail(err error) {
	ps.failMu.Lock()
	if ps.failErr == nil {
		ps.failErr = err
	}
	ps.failMu.Unlock()
	ps.failed.Store(true)
}

const maxTime = Time(1<<63 - 1)

// runPar is the parallel kernel's Run loop: start every shard's procs, then
// repeat conservative windows until no proc is live.
func (k *Kernel) runPar() error {
	ps := k.par
	if ps.lookahead <= 0 {
		return fmt.Errorf("sim: parallel kernel requires a positive lookahead (SetLookahead)")
	}
	for _, p := range k.procs {
		if p.sh == nil {
			return fmt.Errorf("sim: parallel kernel: proc %d (%s) not assigned to a shard", p.id, p.name)
		}
	}

	work := make(chan *shard, len(ps.shards))
	defer close(work)
	var wg sync.WaitGroup
	// A panic inside a step (a proc body's, arriving through resume) is held
	// until the window's barrier and re-raised on Run's goroutine: no shard
	// is mid-step when Run's caller, or the teardown on the way, sees it.
	step := func(sh *shard) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				ps.failMu.Lock()
				if ps.panicked == nil {
					ps.panicked = r
				}
				ps.failMu.Unlock()
				ps.failed.Store(true)
			}
		}()
		sh.step()
	}
	for i := 1; i < ps.workers; i++ {
		go func() {
			for sh := range work {
				step(sh)
			}
		}()
	}
	// The coordinator doubles as a worker: it always runs the first ready
	// shard itself, so single-shard windows (barrier fan-in, any serial
	// protocol phase) never pay a cross-thread wakeup — they degenerate to
	// the sequential kernel's cost.
	dispatch := func(ready []*shard) {
		if len(ready) == 0 {
			return
		}
		wg.Add(len(ready))
		for _, sh := range ready[1:] {
			work <- sh
		}
		step(ready[0])
		wg.Wait()
		if ps.panicked != nil {
			panic(ps.panicked)
		}
	}

	// Start phase: every shard starts its procs at t=0 in spawn order.
	// Starts process no events, and any cross-shard effect lands at least
	// one lookahead away, so per-shard start order is equivalent to the
	// sequential kernel's global spawn order.
	ps.horizon = Time(ps.lookahead)
	dispatch(ps.shards)

	ready := make([]*shard, 0, len(ps.shards))
	for {
		if c := k.canceled.Load(); c != nil {
			ps.fail(c.err)
		}
		if ps.failed.Load() {
			return ps.failErr
		}
		live := 0
		empty := true
		t := maxTime
		for _, sh := range ps.shards {
			sh.mergeInbox()
			live += sh.live
			if len(sh.events) > 0 {
				empty = false
				if sh.events[0].at < t {
					t = sh.events[0].at
				}
			}
		}
		if live == 0 {
			return nil
		}
		if empty {
			return &ErrDeadlock{Detail: k.dump()}
		}
		ps.horizon = t + Time(ps.lookahead)
		ready = ready[:0]
		for _, sh := range ps.shards {
			if len(sh.events) > 0 && sh.events[0].at < ps.horizon {
				ready = append(ready, sh)
			}
		}
		dispatch(ready)
	}
}

// mergeInbox folds barrier-time arrivals from other shards into the heap.
// Runs on the coordinator between windows; the barrier orders it against
// the appends.
func (sh *shard) mergeInbox() {
	sh.inMu.Lock()
	pending := sh.inbox
	sh.inbox = sh.inbox[:0]
	for _, e := range pending {
		sh.events.push(e)
	}
	sh.inMu.Unlock()
}

// step runs one unit of shard work on a worker goroutine: the start phase
// on first dispatch, then a window drain up to the current horizon.
func (sh *shard) step() {
	if !sh.started {
		sh.started = true
		sh.live = len(sh.procs)
		for _, p := range sh.procs {
			p.start()
			p.resume(0)
		}
		return
	}
	ps := sh.k.par
	for len(sh.events) > 0 && sh.events[0].at < ps.horizon {
		if ps.failed.Load() {
			return
		}
		sh.k.fire(sh.events.pop())
	}
}
