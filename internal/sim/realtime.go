package sim

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Realtime mode: the same Kernel/Proc API driven by the wall clock and
// real goroutine concurrency instead of the virtual-time event loop.
//
// Under a real transport (dsmrun -transport=mem|udp) the cluster is not a
// simulation: every proc runs concurrently on its own goroutine, Now() is
// wall time since kernel creation, Send delays become real timers, and
// modeled CPU charges (Advance) are no-ops — wall time is measured, not
// modeled. Delivery happens through per-proc mailboxes guarded by a
// mutex+cond, fed either by Proc.Send (local signaling, self-addressed
// alarms) or by Inject (transport receive pumps).
//
// Mutual exclusion: the DES kernel guarantees one runnable proc at a
// time, and the DSM engine's node state relies on that (a node's compute
// and service procs share protocol state without locks). Realtime mode
// preserves the invariant pairwise: SetExclusive gives a group of procs
// (one node's compute + service) a shared mutex held whenever a member
// runs and released only while it blocks in Recv. Cross-node state must
// be locked by the caller (the engine wraps its shared checker and trace
// sinks); node-local state needs nothing.
//
// Lock order: a proc never takes its group lock while holding its mailbox
// mutex. Recv releases the group lock before blocking and reacquires it
// only after popping a message and dropping the mailbox mutex.
//
// Teardown: the first failure (Fail, a panicked proc, Cancel) kills the
// kernel — the killed channel closes, every mailbox cond broadcasts, and
// each proc unwinds with a sentinel panic recovered by its goroutine
// wrapper. Run returns the first error.

// rtState is the realtime half of a Kernel.
type rtState struct {
	start time.Time

	mu     sync.Mutex // guards err
	err    error
	killed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// groups maps each exclusive-group mutex to its member procs, so
	// SetExclusive can wire every member's peer list (the Advance-yield
	// handshake needs to see sibling mailboxes). Built before Run.
	groups map[*sync.Mutex][]*Proc
}

// errProcKilled is the sentinel panic unwinding a proc's body, on every
// kernel: a killed realtime proc, a virtual-time proc the kernel stopped,
// or one that called Fail. Only the proc's own wrapper recovers it.
var errProcKilled = new(struct{ _ int })

// NewRealtimeKernel returns a kernel whose procs run concurrently against
// the wall clock. Spawn procs as usual; Run starts them all and returns
// when every proc has finished (or the first failure kills the run).
func NewRealtimeKernel() *Kernel {
	return &Kernel{rt: &rtState{start: time.Now(), killed: make(chan struct{})}}
}

// Realtime reports whether the kernel runs against the wall clock.
func (k *Kernel) Realtime() bool { return k.rt != nil }

func (rt *rtState) now() Time { return Time(time.Since(rt.start)) }

func (rt *rtState) isKilled() bool {
	select {
	case <-rt.killed:
		return true
	default:
		return false
	}
}

// SetExclusive ties the proc into a mutual-exclusion group: mu is held
// whenever the proc runs and released only while it blocks in Recv. Pass
// the same mutex to every proc of the group (one DSM node's compute and
// service). Realtime kernels only; call before Run.
func (p *Proc) SetExclusive(mu *sync.Mutex) {
	if p.k.rt == nil {
		panic("sim: SetExclusive on a virtual-time kernel")
	}
	p.excl = mu
	rt := p.k.rt
	if rt.groups == nil {
		rt.groups = make(map[*sync.Mutex][]*Proc)
	}
	g := append(rt.groups[mu], p)
	rt.groups[mu] = g
	for _, q := range g {
		q.peers = q.peers[:0]
		for _, r := range g {
			if r != q {
				q.peers = append(q.peers, r)
			}
		}
	}
}

// Inject delivers a message to proc dst from outside the proc set — the
// entry point for transport receive pumps and fired timers. Safe to call
// from any goroutine, including after the kernel was killed.
func (k *Kernel) Inject(dst int, m *Message) {
	p := k.procs[dst]
	m.Arrival = k.rt.now()
	p.mboxMu.Lock()
	p.mbox = append(p.mbox, m)
	p.mboxN.Add(1)
	p.mboxMu.Unlock()
	p.mboxCond.Signal()
}

// killRT records the first error and unwinds every proc.
func (k *Kernel) killRT(err error) {
	rt := k.rt
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
	rt.once.Do(func() { close(rt.killed) })
	for _, p := range k.procs {
		// The empty critical section orders the close of killed before any
		// waiter already committed to Wait: a proc between its killed check
		// and Wait still holds mboxMu, so we block here until it is inside
		// Wait and the broadcast reaches it.
		p.mboxMu.Lock()
		p.mboxMu.Unlock()
		p.mboxCond.Broadcast()
	}
}

// checkKilledRT panics the calling proc out of the run if the kernel was
// killed; called at every kernel entry point so compute loops unwind
// promptly.
func (p *Proc) checkKilledRT() {
	if p.k.rt.isKilled() {
		panic(errProcKilled)
	}
}

// runRT starts every proc goroutine and waits for all of them.
func (k *Kernel) runRT() error {
	rt := k.rt
	for _, p := range k.procs {
		p := p
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			defer func() {
				if r := recover(); r != nil && r != errProcKilled {
					k.killRT(&ProcPanic{Proc: p.id, Name: p.name, Value: r, Stack: debug.Stack()})
				}
				// Mark done before releasing the lock so a sibling's
				// Advance-yield never spins on mail this proc will not read.
				p.doneRT.Store(true)
				if p.exclHeld {
					p.exclHeld = false
					p.excl.Unlock()
				}
				p.state = stateDone
			}()
			p.state = stateRunning
			if p.excl != nil {
				p.excl.Lock()
				p.exclHeld = true
			}
			p.body(p)
		}()
	}
	rt.wg.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// sendRT enqueues a message, via a real timer when delayed. The payload
// is handed over as-is: local delivery models intra-process signaling
// (self-addressed alarms, service→compute wakeups), which shares memory
// legitimately. Remote traffic never passes through here — it crosses the
// transport as encoded frames.
func (p *Proc) sendRT(dst int, delay Duration, payload any) {
	p.checkKilledRT()
	m := &Message{From: p.id, To: dst, Payload: payload}
	if delay <= 0 {
		p.k.Inject(dst, m)
		return
	}
	time.AfterFunc(time.Duration(delay), func() { p.k.Inject(dst, m) })
}

// recvRT blocks on the proc's mailbox, releasing the group lock while
// blocked.
func (p *Proc) recvRT() *Message {
	rt := p.k.rt
	released := false
	p.mboxMu.Lock()
	for p.mboxLen() == 0 {
		if rt.isKilled() {
			p.mboxMu.Unlock()
			// Unwind without reacquiring the group lock: exclHeld already
			// records the release, so the wrapper's cleanup stays balanced.
			panic(errProcKilled)
		}
		if p.exclHeld {
			// Release the group lock so the sibling proc can run, then
			// re-check the mailbox: a message may have landed while the
			// mailbox mutex was dropped (lock order: group lock is never
			// taken while holding mboxMu).
			p.mboxMu.Unlock()
			p.exclHeld = false
			p.excl.Unlock()
			released = true
			p.mboxMu.Lock()
			continue
		}
		p.mboxCond.Wait()
	}
	if released {
		// Reacquire the group lock BEFORE consuming: mboxN is the
		// Advance-yield handshake's pending-work signal, so it must stay
		// nonzero until this proc can actually run its handler (lock
		// order: the group lock is never taken while holding mboxMu).
		p.mboxMu.Unlock()
		p.excl.Lock()
		p.exclHeld = true
		p.mboxMu.Lock()
	}
	m := p.mboxPop()
	p.mboxN.Add(-1)
	p.mboxMu.Unlock()
	return m
}

// tryRecvRT pops an already-delivered message without blocking (the group
// lock stays held throughout).
func (p *Proc) tryRecvRT() *Message {
	p.checkKilledRT()
	p.mboxMu.Lock()
	if p.mboxLen() == 0 {
		p.mboxMu.Unlock()
		return nil
	}
	m := p.mboxPop()
	p.mboxN.Add(-1)
	p.mboxMu.Unlock()
	return m
}

// yieldRT hands the exclusive-group lock to a sibling with delivered but
// unprocessed mail, then takes it back once the sibling has drained. The
// DES kernel lets other procs run through every Advance; without this a
// realtime compute proc would hold the group lock for its entire window
// and every request to its node's service would stall until the barrier —
// an interleaving the protocols were never written for (copyset news
// would systematically miss the arrival they make under virtual time).
//
// The handshake spins on the siblings' mailbox counters, which stay
// nonzero until the sibling holds the group lock (recvRT reacquires
// before popping). A sibling itself parked in yieldRT is not waited for —
// two procs yielding to each other would otherwise spin forever, each
// holding mail only the other can consume.
func (p *Proc) yieldRT() {
	if !p.exclHeld || len(p.peers) == 0 {
		return
	}
	busy := func() bool {
		for _, q := range p.peers {
			if q.mboxN.Load() > 0 && !q.doneRT.Load() && !q.yielding.Load() {
				return true
			}
		}
		return false
	}
	if !busy() {
		return
	}
	p.yielding.Store(true)
	p.exclHeld = false
	p.excl.Unlock()
	for busy() && !p.k.rt.isKilled() {
		runtime.Gosched()
	}
	p.excl.Lock()
	p.exclHeld = true
	p.yielding.Store(false)
	p.checkKilledRT()
}

func (p *Proc) pendingRT() int {
	p.mboxMu.Lock()
	n := p.mboxLen()
	p.mboxMu.Unlock()
	return n
}
