package main

import (
	"fmt"
	"os"
	"strings"

	"godsm/internal/core"
	"godsm/internal/sim"
	"godsm/internal/stats"
)

// value is one printed metric.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note carries what a bare number hides: sample counts, how many
	// samples lie beyond the percentile.
	Note string `json:"note,omitempty"`
	// Exact marks a count that repeats bit for bit on the same code and
	// seed — simulator counts and messages per operation. -compare
	// reports any difference in one.
	Exact bool `json:"exact,omitempty"`
}

// valueSet collects metrics in the order they are set. Every name must be
// declared in metrics.go; an undeclared one is a bug in the benchmark.
type valueSet struct {
	vals []value
}

func (s *valueSet) put(name string, v float64, exact bool, note string) {
	def, ok := metricByName(name)
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in metrics.go", name))
	}
	s.vals = append(s.vals, value{Name: name, Value: v, Unit: def.Unit, Note: note, Exact: exact})
}

func (s *valueSet) set(name string, v float64)               { s.put(name, v, false, "") }
func (s *valueSet) setExact(name string, v float64)          { s.put(name, v, true, "") }
func (s *valueSet) setNote(name string, v float64, n string) { s.put(name, v, false, n) }

// traceAcc sums the whole-run Timelines of a traced pass. Report.Total is
// windowed to the measured interval; the Timeline covers warm-up too, and
// warm-up is host time like any other.
type traceAcc struct {
	epochs     int64
	ctr        stats.Counters
	bd         stats.Breakdown
	simTime    sim.Duration // Σ virtual end time of each run (simulator)
	epochMS    []float64    // wall length of every epoch (real transports)
	frameBytes int64
}

// add folds one traced run in (rep is nil for a failed run) and returns
// the run's epoch bounds as offsets from its start, for the span file.
// Only a real-transport run has them: there Timeline times are wall time
// since the kernel was created, while a simulator Timeline is in virtual
// time and says nothing about where host time went.
func (a *traceAcc) add(w *workload, rep *core.Report) [][2]int64 {
	if rep == nil || rep.Timeline == nil {
		return nil
	}
	var bounds [][2]int64
	for _, e := range rep.Timeline.Epochs {
		a.epochs++
		a.ctr.Add(e.Total)
		a.bd.Add(e.BdSum)
		if !w.sim() {
			a.epochMS = append(a.epochMS, float64(e.End-e.Start)/1e6)
			bounds = append(bounds, [2]int64{int64(e.Start), int64(e.End)})
		}
	}
	if n := len(rep.Timeline.Epochs); n > 0 && w.sim() {
		a.simTime += sim.Duration(rep.Timeline.Epochs[n-1].End)
	}
	a.frameBytes += rep.FrameBytes
	return bounds
}

// boundaryMetrics turns the traced pass into the workload-boundary
// per-layer metrics. ref is the untraced pass of the same process, which
// the runtime.* numbers and the tracing overhead are taken from.
func boundaryMetrics(w *workload, ref, traced *pass, tr *tracer, out *valueSet) {
	a := tr.acc
	if a.epochs == 0 {
		return
	}
	per := func(v int64) float64 { return float64(v) / float64(a.epochs) }
	// Simulator counts repeat exactly; over a real transport timing
	// decides how much is batched, refetched or retransmitted.
	count := func(name string, v float64) { out.put(name, v, w.sim(), "") }
	count("core.msgs_per_epoch", per(a.ctr.Messages))
	count("core.data_kb_per_epoch", per(a.ctr.DataBytes)/1024)
	count("core.diffs_per_epoch", per(a.ctr.Diffs))
	count("core.remote_misses_per_epoch", per(a.ctr.RemoteMisses))
	count("core.segvs_per_epoch", per(a.ctr.Segvs))
	count("core.mprotects_per_epoch", per(a.ctr.Mprotects))
	count("core.retransmits_per_epoch", per(a.ctr.Retransmits))
	if w.sim() {
		out.setExact("core.sim_time_us_per_epoch", float64(a.simTime)/1e3/float64(a.epochs))
		app, opsys, sigio, wait := a.bd.Fractions()
		out.setExact("stats.app_frac", app)
		out.setExact("stats.os_frac", opsys)
		out.setExact("stats.sigio_frac", sigio)
		out.setExact("stats.wait_frac", wait)
	}
	if packets := a.ctr.Messages + a.ctr.Replies; packets > 0 {
		out.set("core.host_us_per_msg", float64(traced.wall.Microseconds())/float64(packets))
	}
	if !w.sim() {
		asc := sorted(a.epochMS)
		out.setNote("core.epoch_ms_p50", percentile(asc, 0.50), fmt.Sprintf("n=%d", len(asc)))
		out.setNote("core.epoch_ms_p95", percentile(asc, 0.95),
			fmt.Sprintf("n=%d, %d beyond", len(asc), beyond(len(asc), 0.95)))
		frames := tr.reg.Counter("godsm_transport_frames_sent_total",
			"wire frames handed to the transport backend", "backend", benchPrefix+w.transport).Value()
		out.set("wire.frames_per_epoch", per(frames))
		out.set("wire.frame_kb_per_epoch", per(a.frameBytes)/1024)
		if us := rec.sendMicros(); len(us) > 0 {
			asc := sorted(us)
			out.setNote("transport.send_us_mean", mean(us), fmt.Sprintf("n=%d", len(us)))
			out.setNote("transport.send_us_p99", percentile(asc, 0.99),
				fmt.Sprintf("n=%d, %d beyond", len(us), beyond(len(us), 0.99)))
		}
	}
	out.set("runtime.peak_rss_mb", peakRSSMiB())
	if ref.epochs > 0 {
		out.set("runtime.mallocs_per_epoch", float64(ref.mallocs)/float64(ref.epochs))
	}
	out.setNote("runtime.gc_cycles", float64(ref.gcCycles), fmt.Sprintf("over %d untraced rounds", ref.rounds))
	if t := traced.epochsPerSecond(); t > 0 {
		out.setNote("trace.overhead_pct", (ref.epochsPerSecond()/t-1)*100,
			fmt.Sprintf("%d trace events", tr.sink.n.Load()))
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM of
// /proc/self/status; 0 where the kernel offers none). It covers the whole
// process so far, so on a full run later workloads inherit the peak of
// earlier ones; a single-workload run is the clean reading.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscan(rest, &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return 0
}
