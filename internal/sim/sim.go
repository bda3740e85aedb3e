// Package sim implements a deterministic, cooperative discrete-event
// simulation kernel.
//
// A Kernel hosts a set of Procs. Each Proc executes ordinary Go code as a
// coroutine of the kernel (iter.Pull): exactly one Proc (or the kernel
// itself) runs at any instant, and control moves between them by direct
// switch, never through the Go scheduler's run queues. A Proc runs until it
// performs a blocking kernel call (Advance, Recv, or returning from its
// body), at which point it switches back to the kernel, which fires the
// globally earliest pending event and switches to the Proc that event
// belongs to.
//
// Virtual time is an int64 count of nanoseconds. A Proc's clock advances
// only through kernel calls; computation performed between calls is free
// unless the Proc charges for it explicitly with Advance. Every event
// carries a content-derived ordering key — (delivery time, push time,
// pushing proc, per-proc push sequence) — so the event order is a pure
// function of what the procs do, never of how the kernel interleaves
// them, and runs are bit-for-bit deterministic.
//
// The kernel is the substrate for godsm's simulated cluster: higher layers
// (netsim, core) build message passing, RPC, and the DSM protocols on top
// of Send/Recv/Advance.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Time is a virtual-time instant in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants for the units the
// cost model speaks in.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (t Time) String() string     { return fmt.Sprintf("%.3fms", float64(t)/1e6) }
func (d Duration) String() string { return fmt.Sprintf("%.3fµs", float64(d)/1e3) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Message is a unit of delivery between Procs. Payload is opaque to the
// kernel; From and Arrival are filled in by the kernel on delivery.
type Message struct {
	From    int // sending Proc id
	To      int // receiving Proc id
	Arrival Time
	Payload any
}

// event is a heap entry: a message delivery, or a timer wakeup when msg is
// nil. Ties at equal delivery time are broken by the push-time key (pushAt,
// from, seq): events pushed earlier in virtual time fire first, then by
// pushing proc id, then in per-proc push order. The key depends only on
// the pushing proc's own deterministic execution, not on any global
// counter.
type event struct {
	at     Time
	pushAt Time   // pushing proc's clock at push
	from   int    // pushing proc id
	seq    uint64 // pushing proc's push sequence number
	proc   int    // destination proc id
	msg    *Message
}

// before is the heap order: the four-field content key. (from, seq) is
// unique per event, so the order is total and any correct heap pops the
// same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.pushAt != o.pushAt {
		return e.pushAt < o.pushAt
	}
	if e.from != o.from {
		return e.from < o.from
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events held by value: a push or pop
// moves structs within one slice and allocates nothing once the slice has
// grown to the run's working set.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the message reference
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

type procState int

const (
	stateReady procState = iota // created, not yet started
	stateRunning
	stateBlockedRecv  // waiting for a message
	stateBlockedTimer // waiting for an Advance wakeup
	stateDone
)

// Proc is a simulated process. All methods must be called only from the
// Proc's own body while it is the running process.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	now   Time
	state procState

	// The coroutine hosting body (virtual-time kernels only; see start).
	// next switches from the kernel into the proc and returns when the proc
	// blocks or finishes; yield switches back, returning false once the
	// kernel has stopped the proc; stop unwinds a proc that has not finished.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	stopped bool // yield returned false: the body is being unwound

	// mbox[mboxHead:] are the delivered, unconsumed messages (mboxPop).
	mbox     []*Message
	mboxHead int

	pushSeq uint64 // events pushed by this proc, for the ordering key

	body func(*Proc)

	// Realtime mode only (see realtime.go). The mailbox cond guards mbox;
	// excl is the proc's mutual-exclusion group lock, exclHeld whether this
	// proc currently holds it (touched only by the proc's own goroutine).
	mboxMu   sync.Mutex
	mboxCond *sync.Cond
	excl     *sync.Mutex
	exclHeld bool
	// peers are the other members of the exclusive group; mboxN counts
	// delivered-but-unconsumed messages; yielding marks a proc parked in
	// yieldRT. Together they form the Advance-yield handshake (realtime.go).
	peers    []*Proc
	mboxN    atomic.Int32
	doneRT   atomic.Bool
	yielding atomic.Bool
}

// ID returns the Proc's kernel-assigned identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the debugging name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the Proc's current virtual time — or, on a realtime kernel,
// the wall time since kernel creation.
func (p *Proc) Now() Time {
	if p.k.rt != nil {
		return p.k.rt.now()
	}
	return p.now
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Kernel drives a set of Procs through virtual time.
type Kernel struct {
	procs  []*Proc
	events eventHeap
	live   int // procs not yet Done
	failed error

	// canceled carries an external stop request (Cancel); the event loop
	// polls it between events. It is the only kernel field touched from
	// outside the simulation's goroutines.
	canceled atomic.Pointer[cancelReason]

	// rt, when non-nil, switches the kernel to wall-clock concurrent
	// execution (see realtime.go).
	rt *rtState

	// OnDeliver, when set, observes every message at its virtual delivery
	// time, just before it joins the destination mailbox. Debug
	// instrumentation (netsim's payload-aliasing check); it must not
	// touch simulated state. Sim mode only — realtime delivery carries
	// decoded frames, which cannot alias sender memory.
	OnDeliver func(m *Message)
}

// cancelReason boxes a Cancel error for atomic publication.
type cancelReason struct{ err error }

// NewKernel returns an empty kernel.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Spawn registers a new Proc executing body. Must be called before Run.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		name:  name,
		body:  body,
		state: stateReady,
	}
	p.mboxCond = sync.NewCond(&p.mboxMu)
	k.procs = append(k.procs, p)
	return p
}

// NumProcs returns the number of spawned procs.
func (k *Kernel) NumProcs() int { return len(k.procs) }

// Proc returns the proc with the given id.
func (k *Kernel) Proc(id int) *Proc { return k.procs[id] }

// push enqueues an event pushed by proc p, stamping the deterministic
// ordering key from p's clock and push counter. A proc being unwound (its
// deferred functions may still call Advance or Send) is turned away before
// it touches the heap.
func (k *Kernel) push(p *Proc, e event) {
	if p.stopped {
		panic(errProcKilled)
	}
	e.pushAt = p.now
	e.from = p.id
	e.seq = p.pushSeq
	p.pushSeq++
	k.events.push(e)
}

// ErrDeadlock is returned by Run when no proc can make progress.
type ErrDeadlock struct {
	Detail string
}

func (e *ErrDeadlock) Error() string { return "sim: deadlock: " + e.Detail }

// ProcPanic reports a panic in a proc body: the body's own panic value and
// the stack it was raised on, which leaving the proc's goroutine would
// otherwise lose. On a virtual-time kernel Run panics with it on its
// caller's goroutine; on a realtime kernel, whose procs run beside Run
// rather than under it, Run returns it as the run's error.
type ProcPanic struct {
	Proc  int    // id of the panicking proc
	Name  string // its Spawn name
	Value any    // what the body passed to panic
	Stack []byte // debug.Stack() at the recovery point inside the body
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %d (%s) panicked: %v\n%s", pp.Proc, pp.Name, pp.Value, pp.Stack)
}

// Run starts every spawned Proc at time 0 and processes events until all
// Procs finish. It returns a *ErrDeadlock if some Procs are blocked forever,
// or any error recorded via Fail or Cancel. On a virtual-time kernel a panic
// in a proc body propagates to Run's caller as a *ProcPanic, and however
// Run ends, every unfinished proc has been unwound before it does: no
// goroutine outlives the run.
func (k *Kernel) Run() error {
	if k.rt != nil {
		return k.runRT()
	}
	defer k.stopProcs()
	// Start all procs at t=0 in spawn order.
	k.live = len(k.procs)
	for _, p := range k.procs {
		p.start()
		p.resume(0)
	}
	for k.live > 0 && k.failed == nil {
		if c := k.canceled.Load(); c != nil {
			k.fail(c.err)
			break
		}
		if len(k.events) == 0 {
			return &ErrDeadlock{Detail: k.dump()}
		}
		k.fire(k.events.pop())
	}
	return k.failed
}

// fire delivers one popped event: a timer wakes its proc (timers are only
// pushed by Advance, so the proc is blocked there); a message joins the
// destination mailbox and wakes the proc if it is blocked in Recv.
func (k *Kernel) fire(e event) {
	p := k.procs[e.proc]
	if e.msg == nil {
		p.resume(e.at)
		return
	}
	e.msg.Arrival = e.at
	if k.OnDeliver != nil {
		k.OnDeliver(e.msg)
	}
	p.mbox = append(p.mbox, e.msg)
	if p.state == stateBlockedRecv {
		p.resume(e.at)
	}
}

// start creates p's coroutine; the body begins on the first resume.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(p.host)
}

// host is the coroutine's function: it runs the body and, however the body
// ends, retires the proc from the kernel's live count. errProcKilled — a
// stopped proc, or one that called Fail — ends here; any other panic
// continues to the goroutine that resumed the proc, with the stack it came
// from.
func (p *Proc) host(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.state = stateDone
		p.k.live--
		if r := recover(); r != nil && r != errProcKilled {
			panic(&ProcPanic{Proc: p.id, Name: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	p.body(p)
}

// resume switches to proc p at virtual time t and returns once p has
// blocked again or finished. The switch is a direct transfer between the
// two goroutines; the clock needs no hand-off because only one side runs.
func (p *Proc) resume(t Time) {
	if t > p.now {
		p.now = t
	}
	p.state = stateRunning
	p.next()
}

// stopProcs unwinds every proc that has not finished: its pending yield
// returns false and the body panics out with errProcKilled (yieldAndWait).
// Stopping a finished proc is a no-op.
func (k *Kernel) stopProcs() {
	for _, p := range k.procs {
		if p.stop != nil {
			p.stop()
		}
	}
}

// fail records the first error that aborts the simulation.
func (k *Kernel) fail(err error) {
	if k.failed == nil {
		k.failed = err
	}
}

// Cancel asks a running kernel to stop: Run returns err after the event
// being processed completes. Unlike every other kernel method, Cancel is
// safe to call from any goroutine (it only publishes a flag), which is
// what lets a context watcher stop a simulation mid-run. Like a Fail, a
// cancelled run unwinds its blocked procs before Run returns: their
// deferred functions run, and their goroutines and whatever the bodies
// held are released. Calling Cancel on a kernel that already stopped is a
// no-op; only the first Cancel's error is reported.
func (k *Kernel) Cancel(err error) {
	if err == nil {
		err = fmt.Errorf("sim: run canceled")
	}
	if k.canceled.CompareAndSwap(nil, &cancelReason{err: err}) && k.rt != nil {
		// Realtime kernels have no event loop polling the flag; kill the
		// proc goroutines directly.
		k.killRT(err)
	}
}

// dump renders the blocked-proc state for deadlock reports.
func (k *Kernel) dump() string {
	var b strings.Builder
	type row struct {
		id   int
		line string
	}
	var rows []row
	for _, p := range k.procs {
		if p.state == stateDone {
			continue
		}
		st := "?"
		switch p.state {
		case stateBlockedRecv:
			st = "recv"
		case stateBlockedTimer:
			st = "timer"
		case stateRunning:
			st = "running"
		case stateReady:
			st = "ready"
		}
		rows = append(rows, row{p.id, fmt.Sprintf("proc %d (%s) blocked in %s at %v, %d queued msgs", p.id, p.name, st, p.now, p.mboxLen())})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for _, r := range rows {
		b.WriteString(r.line)
		b.WriteString("\n")
	}
	return b.String()
}

// yieldAndWait switches back to the kernel until it resumes the proc
// (resume has by then set the clock and state). A false yield means the
// kernel stopped the proc instead: unwind the body.
func (p *Proc) yieldAndWait() {
	if !p.yield(struct{}{}) {
		p.stopped = true
		panic(errProcKilled)
	}
}

// Advance moves the Proc's clock forward by d, letting other procs run in
// the meantime. Advance(0) is a no-op that does not yield.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Advance(%d) by proc %d", d, p.id))
	}
	if p.k.rt != nil {
		// Modeled CPU charges are virtual-time bookkeeping; under the wall
		// clock the work's real duration is what elapses. But an Advance is
		// still a scheduling point: the DES kernel lets other procs run
		// through the charged span, and protocol state relies on that (a
		// node's service handles mid-window requests during the barrier-
		// entry flush, before the arrival snapshots copyset news). yieldRT
		// preserves the contract by handing the group lock to a sibling
		// with pending mail; its kill check keeps compute-heavy loops
		// responsive to teardown.
		p.checkKilledRT()
		p.yieldRT()
		return
	}
	if d == 0 {
		return
	}
	p.k.push(p, event{at: p.now + Time(d), proc: p.id})
	p.state = stateBlockedTimer
	p.yieldAndWait()
}

// Send enqueues payload for delivery to proc dst after delay. It does not
// block or advance the sender's clock; charge transmission CPU cost with
// Advance separately.
func (p *Proc) Send(dst int, delay Duration, payload any) {
	if delay < 0 {
		panic("sim: negative send delay")
	}
	if p.k.rt != nil {
		p.sendRT(dst, delay, payload)
		return
	}
	m := &Message{From: p.id, To: dst}
	m.Payload = payload
	p.k.push(p, event{at: p.now + Time(delay), proc: dst, msg: m})
}

// mboxLen reports the delivered, unconsumed messages. On a realtime
// kernel the caller holds mboxMu.
func (p *Proc) mboxLen() int { return len(p.mbox) - p.mboxHead }

// mboxPop dequeues the oldest message in O(1): the head index moves and the
// slice is reset, keeping its backing array, whenever the mailbox empties.
// On a realtime kernel the caller holds mboxMu.
func (p *Proc) mboxPop() *Message {
	m := p.mbox[p.mboxHead]
	p.mbox[p.mboxHead] = nil
	p.mboxHead++
	if p.mboxHead == len(p.mbox) {
		p.mbox, p.mboxHead = p.mbox[:0], 0
	}
	if m.Arrival > p.now {
		p.now = m.Arrival
	}
	return m
}

// Recv returns the next queued message, blocking in virtual time until one
// arrives. Messages are delivered in (arrival time, send sequence) order.
// The proc clock advances to at least the message's arrival time.
func (p *Proc) Recv() *Message {
	if p.k.rt != nil {
		return p.recvRT()
	}
	for p.mboxLen() == 0 {
		p.state = stateBlockedRecv
		p.yieldAndWait()
	}
	return p.mboxPop()
}

// TryRecv returns the next already-delivered message, or nil without
// blocking if none has arrived by the proc's current time.
func (p *Proc) TryRecv() *Message {
	if p.k.rt != nil {
		return p.tryRecvRT()
	}
	if p.mboxLen() == 0 {
		return nil
	}
	return p.mboxPop()
}

// Pending reports how many messages are queued for the proc.
func (p *Proc) Pending() int {
	if p.k.rt != nil {
		return p.pendingRT()
	}
	return p.mboxLen()
}

// Fail aborts the whole simulation with err. The calling proc does not
// return: its body is unwound on the spot (deferred functions run), and
// the kernel unwinds every other unfinished proc before Run returns err.
func (p *Proc) Fail(err error) {
	if p.k.rt != nil {
		p.k.killRT(err)
		panic(errProcKilled)
	}
	if !p.stopped {
		p.k.fail(err)
	}
	panic(errProcKilled)
}
