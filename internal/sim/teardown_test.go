package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// goroutinesSettleAt fails the test unless the process's goroutine count
// comes back to want. A finished coroutine's goroutine exits just after
// the switch that ended it, so the count is polled for a bounded time.
func goroutinesSettleAt(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: the run left procs behind", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// kernels runs a test body as the "sequential" subtest, on a fresh kernel.
func kernels(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	t.Run("sequential", func(t *testing.T) { fn(t, NewKernel()) })
}

// spawnN spawns n procs named p0..p<n-1> running body.
func spawnN(k *Kernel, n int, body func(*Proc)) {
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), body)
	}
}

// ringForever passes messages around the ring of all procs, forever.
func ringForever(p *Proc) {
	n := p.Kernel().NumProcs()
	p.Send((p.ID()+1)%n, Microsecond, nil)
	for {
		p.Recv()
		p.Advance(Microsecond)
		p.Send((p.ID()+1)%n, Microsecond, nil)
	}
}

func TestCancelLeavesNoGoroutines(t *testing.T) {
	kernels(t, func(t *testing.T, k *Kernel) {
		base := runtime.NumGoroutine()
		unwound := 0
		spawnN(k, 16, func(p *Proc) {
			defer func() { unwound++ }() // stop runs the bodies' defers, one at a time
			ringForever(p)
		})
		stop := errors.New("stop")
		go func() {
			time.Sleep(2 * time.Millisecond) // let the run get going
			k.Cancel(stop)
		}()
		if err := k.Run(); !errors.Is(err, stop) {
			t.Fatalf("err = %v, want stop", err)
		}
		if unwound != 16 {
			t.Errorf("%d of 16 bodies unwound", unwound)
		}
		goroutinesSettleAt(t, base)
	})
}

func TestFailLeavesNoGoroutines(t *testing.T) {
	kernels(t, func(t *testing.T, k *Kernel) {
		base := runtime.NumGoroutine()
		boom := errors.New("boom")
		afterFail := false
		spawnN(k, 16, func(p *Proc) {
			if p.ID() == 5 {
				p.Advance(50 * Microsecond)
				p.Fail(boom)
				afterFail = true
			}
			ringForever(p)
		})
		if err := k.Run(); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		if afterFail {
			t.Error("Fail returned to its caller")
		}
		goroutinesSettleAt(t, base)
	})
}

func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	kernels(t, func(t *testing.T, k *Kernel) {
		base := runtime.NumGoroutine()
		spawnN(k, 16, func(p *Proc) {
			p.Advance(Duration(1+p.ID()) * Microsecond)
			p.Recv() // nobody sends
		})
		err := k.Run()
		var dl *ErrDeadlock
		if !errors.As(err, &dl) {
			t.Fatalf("err = %v, want ErrDeadlock", err)
		}
		if !strings.Contains(dl.Detail, "proc 15 (p15) blocked in recv") {
			t.Errorf("deadlock detail does not list the blocked procs:\n%s", dl.Detail)
		}
		goroutinesSettleAt(t, base)
	})
}

func TestBodyPanicReachesRunsCaller(t *testing.T) {
	kernels(t, func(t *testing.T, k *Kernel) {
		base := runtime.NumGoroutine()
		boom := errors.New("boom")
		spawnN(k, 8, func(p *Proc) {
			if p.ID() == 3 {
				p.Advance(20 * Microsecond)
				panicInBody(boom)
			}
			ringForever(p)
		})
		func() {
			defer func() {
				pp, ok := recover().(*ProcPanic)
				if !ok {
					t.Fatalf("Run did not panic with a *ProcPanic")
				}
				if pp.Value != boom || pp.Proc != 3 || pp.Name != "p3" {
					t.Errorf("ProcPanic = proc %d (%s) value %v, want proc 3 (p3) value boom", pp.Proc, pp.Name, pp.Value)
				}
				if !strings.Contains(string(pp.Stack), "panicInBody") {
					t.Errorf("stack does not show where the body panicked:\n%s", pp.Stack)
				}
			}()
			err := k.Run()
			t.Fatalf("Run returned %v, want a panic", err)
		}()
		goroutinesSettleAt(t, base)
	})
}

//go:noinline
func panicInBody(v any) { panic(v) }

// A proc whose deferred function makes kernel calls while the kernel is
// stopping it: each call unwinds again instead of blocking or pushing
// events, and the live count still comes out even.
func TestStoppedProcCallingKernelFromDefer(t *testing.T) {
	kernels(t, func(t *testing.T, k *Kernel) {
		base := runtime.NumGoroutine()
		var calls []string
		spawnN(k, 4, func(p *Proc) {
			if p.ID() == 0 {
				attempt := func(name string, call func()) {
					defer func() {
						if r := recover(); r != nil {
							calls = append(calls, name)
							if r != errProcKilled {
								panic(r)
							}
						}
					}()
					call()
				}
				defer func() {
					attempt("advance", func() { p.Advance(Microsecond) })
					attempt("send", func() { p.Send(1, Microsecond, nil) })
					attempt("fail", func() { p.Fail(errors.New("late")) })
					p.Recv() // empty mailbox: would block forever
				}()
			}
			ringForever(p)
		})
		stop := errors.New("stop")
		go func() {
			time.Sleep(2 * time.Millisecond)
			k.Cancel(stop)
		}()
		if err := k.Run(); !errors.Is(err, stop) {
			t.Fatalf("err = %v, want stop", err)
		}
		if got := strings.Join(calls, ","); got != "advance,send,fail" {
			t.Errorf("kernel calls turned away during the unwind: %q, want advance,send,fail", got)
		}
		if k.live != 0 {
			t.Errorf("live = %d after the run, want 0", k.live)
		}
		goroutinesSettleAt(t, base)
	})
}

// Deep heap, many coroutines: 1 024 procs of 100 Advances each.
func TestManyProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	const procs, steps = 1024, 100
	ends := make([]Time, procs)
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(Duration(1+(i+s)%7) * Microsecond)
			}
			ends[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		var want Time
		for s := 0; s < steps; s++ {
			want += Time(1+(i+s)%7) * Time(Microsecond)
		}
		if end != want {
			t.Fatalf("proc %d finished at %v, want %v", i, end, want)
		}
	}
	goroutinesSettleAt(t, base)
}

// Property: the heap pops any set of events in the order of the content
// key, with ties forced on every field but the last.
func TestEventHeapPopsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		events := make([]event, n)
		var h eventHeap
		for i := range events {
			events[i] = event{
				at:     Time(rng.Intn(4)),
				pushAt: Time(rng.Intn(3)),
				from:   rng.Intn(3),
				seq:    uint64(i), // unique, as a proc's push counter makes it
				proc:   i,
			}
			h.push(events[i])
			if rng.Intn(4) == 0 && len(h) > 1 {
				// Interleave pops with pushes, as a run does; put the popped
				// event back so the final drain still sees all n.
				e := h.pop()
				h.push(e)
			}
		}
		sort.Slice(events, func(i, j int) bool { return events[i].before(&events[j]) })
		for i, want := range events {
			if got := h.pop(); got != want {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got, want)
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d events left after %d pops", trial, len(h), n)
		}
	}
}

// The mailbox's head index: interleaved deliveries and receives come out
// in arrival order, and Pending, TryRecv and the deadlock dump all read
// through it.
func TestMailboxHeadIndex(t *testing.T) {
	k := NewKernel()
	const msgs = 9
	k.Spawn("sender", func(p *Proc) {
		for i := 0; i < msgs; i++ {
			p.Send(1, Duration(1+i)*Microsecond, i)
		}
	})
	k.Spawn("receiver", func(p *Proc) {
		p.Advance(5 * Microsecond) // five arrivals queue up behind the head
		if got := p.Pending(); got != 5 {
			t.Errorf("Pending = %d, want 5", got)
		}
		for want := 0; want < 3; want++ {
			if got := p.Recv().Payload.(int); got != want {
				t.Errorf("Recv = %d, want %d", got, want)
			}
		}
		if got := p.Pending(); got != 2 {
			t.Errorf("Pending after three receives = %d, want 2", got)
		}
		p.Advance(Microsecond) // a delivery lands behind a moved head
		for want := 3; want < 6; want++ {
			if m := p.TryRecv(); m == nil || m.Payload.(int) != want {
				t.Errorf("TryRecv = %v, want %d", m, want)
			}
		}
		if m := p.TryRecv(); m != nil {
			t.Errorf("TryRecv on a drained mailbox = %v", m.Payload)
		}
		if p.mboxHead != 0 || len(p.mbox) != 0 {
			t.Errorf("drained mailbox not reset: head %d, len %d", p.mboxHead, len(p.mbox))
		}
		p.Advance(10 * Microsecond)
		p.Recv()
		if !strings.Contains(k.dump(), "2 queued msgs") {
			t.Errorf("dump does not count from the head:\n%s", k.dump())
		}
		p.Recv()
		p.Recv()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
