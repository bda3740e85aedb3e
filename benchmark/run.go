package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/transport"
)

// runDeadline bounds every run: a wedged socket or a deadlocked protocol
// becomes a failed run, not a hung benchmark.
const runDeadline = 30 * time.Second

// cellState is a cell after set-up: the built application and the
// reference values every later run of the cell is held to.
type cellState struct {
	*cell
	app    *apps.App
	refSum uint64  // checksum of the sequential baseline
	seqMS  float64 // host time of the sequential baseline
	// epochs is the cell's whole-run barrier-episode count, read once from
	// the warm round's Timeline. Report.Total.Barriers is windowed to the
	// measured interval and would undercount.
	epochs int
	// Simulator cells only: the warm round's virtual time and message
	// count. The simulator is deterministic, so a later run that reports
	// anything else has drifted and counts as failed.
	warmElapsed sim.Duration
	warmMsgs    int64
}

// tracer carries what a traced run attaches beyond Timeline.
type tracer struct {
	sink *countingSink
	reg  *metrics.Registry
	acc  *traceAcc
}

// runCell launches one run of the cell and checks its checksum.
func runCell(ctx context.Context, w *workload, cs *cellState, timeline bool, tr *tracer) (*core.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	opts := apps.RunOpts{Timeline: timeline}
	if !w.sim() {
		opts.Transport = w.transport
	}
	if tr != nil {
		opts.Sinks = append(opts.Sinks, tr.sink)
		opts.Metrics = tr.reg
		if !w.sim() {
			opts.Transport = benchPrefix + w.transport
			if w.transport == transport.KindUDP {
				// core arms the reliability layer only for the name "udp";
				// the wrapper's name is different, so arm it here.
				opts.Faults = &netsim.FaultPlan{}
			}
		}
	}
	if cs.fanout != 0 {
		opts.Configure = func(c *core.Config) { c.BarrierFanout = cs.fanout }
	}
	rep, err := cs.app.RunWithContext(ctx, cs.nodes, cs.proto, opts)
	if err != nil {
		return nil, err
	}
	if !rep.HasChecksum || rep.Checksum != cs.refSum {
		return nil, fmt.Errorf("%w: checksum %#x, sequential reference %#x", errWrongOutput, rep.Checksum, cs.refSum)
	}
	return rep, nil
}

// errWrongOutput marks a run that completed with the wrong answer, as
// opposed to one that returned an error or hit its deadline.
var errWrongOutput = errors.New("wrong output")

// setUp builds the workload's applications, runs each cell's sequential
// baseline for the reference checksum, and runs one untimed warm round
// (page-buffer pools, lazy tables, socket buffers) with Timeline on to
// read each cell's whole-run epoch count.
func setUp(ctx context.Context, w *workload, seed uint64) ([]*cellState, error) {
	cells := make([]*cellState, len(w.cells))
	for i := range w.cells {
		cs := &cellState{cell: &w.cells[i]}
		app, err := cs.build(seed)
		if err != nil {
			return nil, fmt.Errorf("%s %s: build: %w", w.name, cs.label, err)
		}
		cs.app = app
		start := time.Now()
		seq, err := app.RunSeq(nil)
		if err != nil {
			return nil, fmt.Errorf("%s %s: sequential baseline: %w", w.name, cs.label, err)
		}
		cs.seqMS = ms(time.Since(start))
		if !seq.HasChecksum {
			return nil, fmt.Errorf("%s %s: sequential baseline reports no checksum", w.name, cs.label)
		}
		cs.refSum = seq.Checksum
		cells[i] = cs
	}
	for _, cs := range cells {
		rep, err := runCell(ctx, w, cs, true, nil)
		if err != nil {
			return nil, fmt.Errorf("%s %s: warm round: %w", w.name, cs.label, err)
		}
		cs.epochs = len(rep.Timeline.Epochs)
		if cs.epochs == 0 {
			return nil, fmt.Errorf("%s %s: warm round recorded no epochs", w.name, cs.label)
		}
		cs.warmElapsed, cs.warmMsgs = rep.Elapsed, rep.Total.Messages
	}
	return cells, nil
}

// pass is the outcome of one measured pass over a workload.
type pass struct {
	rounds    int
	attempted int
	failed    int
	wrong     int      // failed runs whose output was wrong (checksum, drift)
	failures  []string // the first few failure reasons
	epochs    int64    // whole-run epochs of the successful runs
	wall      time.Duration
	times     [][]float64 // per cell: wall ms of each successful run
	// Allocation and collector activity across the pass.
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

// budget says when a pass ends: after a fixed number of rounds, or — when
// seconds is positive — after the first round that ends past the time
// budget. Whole rounds only, so every cell has the same sample count.
type budget struct {
	rounds  int
	seconds float64
}

func (b budget) more(done int, elapsed time.Duration) bool {
	if b.seconds > 0 {
		return done == 0 || elapsed.Seconds() < b.seconds
	}
	return done < b.rounds
}

// third is the traced pass's share of a budget.
func (b budget) third() budget {
	return budget{rounds: max(1, b.rounds/3), seconds: b.seconds / 3}
}

// measure runs the workload's cells round-robin until the budget is
// spent. The wall clock covers the runs themselves; the bookkeeping
// between two runs is outside it. With tr set every run is traced.
func measure(ctx context.Context, w *workload, cells []*cellState, b budget, tr *tracer) *pass {
	p := &pass{times: make([][]float64, len(cells))}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for ; b.more(p.rounds, p.wall) && ctx.Err() == nil; p.rounds++ {
		for i, cs := range cells {
			var runID int64
			if tr != nil {
				// The first round's frames become the replay corpus.
				runID = rec.beginRun(cs.label, p.rounds == 0)
			}
			start := time.Now()
			rep, err := runCell(ctx, w, cs, tr != nil, tr)
			d := time.Since(start)
			p.wall += d
			p.attempted++
			if err == nil && w.sim() && (rep.Elapsed != cs.warmElapsed || rep.Total.Messages != cs.warmMsgs) {
				err = fmt.Errorf("%w: simulated time %v and %d messages, warm round had %v and %d",
					errWrongOutput, rep.Elapsed, rep.Total.Messages, cs.warmElapsed, cs.warmMsgs)
			}
			if tr != nil {
				rec.endRun(runID, tr.acc.add(w, rep))
			}
			if err != nil {
				p.fail(cs, err)
				continue
			}
			p.epochs += int64(cs.epochs)
			p.times[i] = append(p.times[i], ms(d))
		}
	}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcCycles = after.NumGC - before.NumGC
	return p
}

func (p *pass) fail(cs *cellState, err error) {
	p.failed++
	if errors.Is(err, errWrongOutput) {
		p.wrong++
	}
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", cs.label, err))
	}
}

// epochsPerSecond is whole-run epochs of the successful runs over the
// time spent in all runs, failed ones included: a failed run costs time
// and delivers nothing.
func (p *pass) epochsPerSecond() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.epochs) / p.wall.Seconds()
}

// cellMedians returns each cell's median run time in ms, skipping cells
// with no successful run.
func (p *pass) cellMedians() []float64 {
	var meds []float64
	for _, ts := range p.times {
		if len(ts) > 0 {
			meds = append(meds, median(ts))
		}
	}
	return meds
}

// tailRatios pools, over all cells, each run's time over its cell's
// median: the cells differ fifty-fold in length, the ratios do not.
func (p *pass) tailRatios() []float64 {
	var ratios []float64
	for _, ts := range p.times {
		if len(ts) == 0 {
			continue
		}
		med := median(ts)
		for _, t := range ts {
			ratios = append(ratios, t/med)
		}
	}
	return ratios
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
