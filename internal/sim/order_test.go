package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The order golden: a seeded 64-proc body mixing Advance, Send and blocking
// Recv, with deliberate ties in delivery time, push time and pusher. The
// hashes below were recorded on the channel-hosted kernel (commit 542b73e)
// before the proc-hosting mechanism changed; the event order is a pure
// function of the content key (at, pushAt, from, seq), so no change to how
// procs are hosted, or to the heap's layout, may move them.
const (
	orderProcs  = 64
	orderRounds = 40

	// goldenFireOrder hashes the (at, proc, isTimer, from) sequence the
	// sequential kernel fires, in firing order.
	goldenFireOrder = "1613b171440a262b"
	// goldenPerProcOrder hashes each proc's own sequence of fired events,
	// procs concatenated in id order.
	goldenPerProcOrder = "9747d77a0183beab"
)

// orderStep is one round of a proc's plan.
type orderStep struct {
	ringDelay  Duration
	extraDst   int // -1: no extra send this round
	extraDelay Duration
	advance    Duration
}

// orderPlan draws every proc's rounds from one seed and counts the messages
// each proc will be sent, so bodies know when their mailbox is finally dry.
func orderPlan(seed int64) (plan [][]orderStep, incoming []int) {
	rng := rand.New(rand.NewSource(seed))
	plan = make([][]orderStep, orderProcs)
	incoming = make([]int, orderProcs)
	for i := range plan {
		plan[i] = make([]orderStep, orderRounds)
		for r := range plan[i] {
			s := orderStep{
				ringDelay: Duration(1+rng.Intn(3)) * Microsecond,
				extraDst:  -1,
				advance:   Duration(rng.Intn(4)) * Microsecond,
			}
			incoming[(i+1)%orderProcs]++
			if rng.Intn(3) == 0 {
				s.extraDst = rng.Intn(orderProcs)
				s.extraDelay = Duration(1+rng.Intn(3)) * Microsecond
				incoming[s.extraDst]++
			}
			plan[i][r] = s
		}
	}
	return plan, incoming
}

// fired is one observed event firing.
type fired struct {
	at      Time
	proc    int
	isTimer bool
	from    int
}

// runOrderBody runs the planned body on k and returns the global firing log
// and the per-proc logs. Message firings are observed through OnDeliver,
// which runs at the firing; timer firings by the woken proc, which runs
// before any other event can fire.
func runOrderBody(t *testing.T, k *Kernel) (global []fired, perProc [][]fired) {
	t.Helper()
	plan, incoming := orderPlan(1998)
	perProc = make([][]fired, orderProcs)
	record := func(f fired) {
		global = append(global, f)
		perProc[f.proc] = append(perProc[f.proc], f)
	}
	k.OnDeliver = func(m *Message) {
		record(fired{at: m.Arrival, proc: m.To, from: m.From})
	}
	for i := 0; i < orderProcs; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			got := 0
			for _, s := range plan[i] {
				// One ring message per round keeps the blocking Recv below
				// deadlock-free: the proc furthest behind always has its
				// predecessor's message for that round on the way.
				p.Send((i+1)%orderProcs, s.ringDelay, nil)
				if s.extraDst >= 0 {
					p.Send(s.extraDst, s.extraDelay, nil)
				}
				if s.advance > 0 {
					p.Advance(s.advance)
					record(fired{at: p.Now(), proc: i, isTimer: true, from: i})
				}
				p.Recv()
				got++
			}
			for ; got < incoming[i]; got++ {
				p.Recv()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return global, perProc
}

func hashFired(logs ...[]fired) string {
	h := fnv.New64a()
	for _, log := range logs {
		for _, f := range log {
			fmt.Fprintf(h, "%d %d %t %d\n", f.at, f.proc, f.isTimer, f.from)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestEventOrderGolden(t *testing.T) {
	global, perProc := runOrderBody(t, NewKernel())
	if len(global) < orderProcs*orderRounds {
		t.Fatalf("only %d events fired; the body did not run", len(global))
	}
	if got := hashFired(global); got != goldenFireOrder {
		t.Errorf("sequential firing order hash = %s, want %s", got, goldenFireOrder)
	}
	if got := hashFired(perProc...); got != goldenPerProcOrder {
		t.Errorf("sequential per-proc order hash = %s, want %s", got, goldenPerProcOrder)
	}
}
