// Command dsmrun executes one of the paper's applications under one DSM
// protocol on the simulated cluster and prints the measured statistics.
//
// Usage:
//
//	dsmrun -app jacobi -proto bar-u -procs 8
//
// Observability flags: -json emits the full machine-readable report
// (including the per-epoch timeline) to stdout; -chrome-trace FILE streams
// the protocol events as a Chrome trace_event document loadable in
// Perfetto; -timeline prints the per-epoch statistics table; -pagestats N
// prints the N hottest pages; -trace N records up to N events (-trace-tail
// keeps the newest instead of the oldest when the cap overflows); -metrics
// FILE writes the run's final counter/histogram snapshot in Prometheus
// text format (- for stdout) — the same names cmd/dsmd serves live on
// /metrics.
//
// -check runs the differential conformance harness instead of a plain
// run: the chosen protocol (fault-injection flags included) is held
// bit-for-bit to the sequential baseline with the consistency oracle
// attached, and any divergence exits non-zero with a localized report.
//
// The flags describe the run as an apps.Spec, the same document cmd/dsmd
// accepts: a flag left out keeps the spec's default (the -kv-* flags keep
// the kv app's, reduced with -small), and every rule is applied before
// anything runs. A rejected run exits 2 naming the flag at fault.
//
// -transport selects the backend by internal/transport registry name:
// "sim" (the default discrete-event simulator) or a real backend —
// mem (in-process channels), udp (loopback datagrams), tcp (persistent
// streams). A real backend leaves the simulator entirely: the cluster
// runs on the wall-clock scheduler, every frame crosses the
// internal/wire codec, and elapsed time is measured rather than modeled
// — so the virtual-time sequential baseline, speedup, and -straggler do
// not apply. Combines with -check to hold the real runtime to the
// simulated baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"godsm/internal/apps"
	"godsm/internal/check"
	"godsm/internal/core"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/obs"
	"godsm/internal/sim"
	"godsm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted, so tests can drive the
// full flag surface in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := apps.Spec{Faults: &apps.FaultSpec{}}
	var kv apps.KVSpec
	parseInt64 := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
	parseUint64 := func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }
	parseFloat := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	fs.StringVar(&spec.App, "app", "jacobi", "application: barnes expl fft jacobi shallow sor swm tomcat kv")
	fs.StringVar(&spec.Proto, "proto", "bar-u", "protocol: seq lmw-i lmw-u bar-i bar-u bar-s bar-m adaptive")
	optional(fs, &spec.Procs, "procs", "cluster size (default 8)", strconv.Atoi)
	fs.BoolVar(&spec.Small, "small", false, "use the reduced application size")
	traceN := fs.Int("trace", 0, "record up to N protocol events and print a summary plus the last 40")
	traceTail := fs.Bool("trace-tail", false, "with -trace, keep the newest N events instead of the oldest")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report (with per-epoch timeline) as JSON")
	chromePath := fs.String("chrome-trace", "", "write protocol events to `file` in Chrome trace_event format")
	fs.BoolVar(&spec.Timeline, "timeline", false, "print the per-epoch statistics table")
	pageStatsN := fs.Int("pagestats", 0, "print the N hottest pages by protocol activity")
	fs.Float64Var(&spec.Faults.Loss, "loss", 0, "fault injection: drop this fraction of remote packets")
	fs.Float64Var(&spec.Faults.Dup, "dup", 0, "fault injection: duplicate this fraction of remote packets")
	fs.Float64Var(&spec.Faults.Reorder, "reorder", 0, "fault injection: delay (reorder) this fraction of remote packets")
	fs.Func("delay", "fault injection: maximum extra latency for -reorder (0 = 500µs); with -reorder 0, delay every packet by up to this", func(v string) error {
		d, err := time.ParseDuration(v)
		spec.Faults.DelayNs = d.Nanoseconds()
		return err
	})
	fs.Func("straggler", "fault injection: slow one node, as node:factor[:fromEpoch[:toEpoch]]", func(v string) error {
		sr, err := parseStraggler(v)
		spec.Faults.Stragglers = []netsim.StragglerRule{sr}
		return err
	})
	fs.Func("crash", "fault injection: crash nodes at barriers, as node:epoch[:restartAfter] (comma-separated; restartAfter 0 restarts in place, omitted never restarts)", func(v string) (err error) {
		spec.Faults.Crashes, err = parseCrashes(v)
		return err
	})
	fs.StringVar(&spec.Transport, "transport", "", "transport backend: sim (the default simulator) or a real one — mem (in-process channels), udp (loopback datagrams), tcp (persistent streams)")
	metricsPath := fs.String("metrics", "", "write the run's final metrics snapshot to `file` in Prometheus text format (- for stdout)")
	optional(fs, &spec.Faults.Seed, "fault-seed", "seed for the fault-injection schedule (default 1)", parseInt64)
	checkRun := fs.Bool("check", false, "differential conformance: hold this protocol (fault flags included) bit-for-bit to the sequential baseline under the consistency oracle")
	optional(fs, &kv.Ops, "kv-ops", "kv: total operation budget across all streams and epochs", strconv.Atoi)
	optional(fs, &kv.Keys, "kv-keys", "kv: key-space size", strconv.Atoi)
	optional(fs, &kv.Shards, "kv-shards", "kv: hash-shard count (>= -procs so every node owns a shard)", strconv.Atoi)
	optional(fs, &kv.Streams, "kv-streams", "kv: open-loop request-stream count (fixed across cluster sizes)", strconv.Atoi)
	fs.StringVar(&kv.Dist, "kv-dist", "", "kv: key popularity: uniform, zipf=S, or hotset=FRAC/KEYS")
	fs.StringVar(&kv.Mix, "kv-mix", "", "kv: request mix, e.g. write=0.2,scan=0.05,scanlen=16")
	optional(fs, &kv.Write, "kv-write", "kv: put fraction in [0,1] (shorthand for the -kv-mix write term)", parseFloat)
	optional(fs, &kv.Epochs, "kv-epochs", "kv: measured stats epochs", strconv.Atoi)
	optional(fs, &kv.Seed, "kv-seed", "kv: traffic generator seed", parseUint64)
	optional(fs, &kv.StatsEvery, "kv-stats-every", "kv: carry the cluster-wide op-counter reduction every N epochs", strconv.Atoi)
	fs.BoolVar(&kv.Locks, "kv-locks", false, "kv: bracket each shard's apply phase in per-shard locks (lmw protocols only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "kv-") {
			spec.KV = &kv
		}
	})
	spec.Timeline = spec.Timeline || *jsonOut
	spec.PageStats = *pageStatsN > 0

	if *metricsPath != "" && *checkRun {
		// The conformance harness builds its own configurations and ignores
		// RunOpts; the registry would come back empty, silently measuring
		// nothing.
		fmt.Fprintln(stderr, "dsmrun: -metrics cannot be combined with -check (the conformance harness ignores run options)")
		return 2
	}
	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.New()
	}
	// Every rule a run must pass is applied here, before anything runs.
	r, err := spec.Resolve(reg)
	if err != nil {
		var fe *apps.FieldError
		if errors.As(err, &fe) {
			fmt.Fprintln(stderr, "dsmrun:", fe.In(flagName))
			if fe.Field == "transport" {
				fs.Usage()
			}
		} else {
			fmt.Fprintln(stderr, "dsmrun:", err)
		}
		return 2
	}
	if *checkRun {
		return runCheck(stdout, stderr, r)
	}

	opts := r.Opts
	var log *trace.Log
	if *traceN > 0 {
		if *traceTail {
			log = trace.NewTail(*traceN)
		} else {
			log = trace.New(*traceN)
		}
		opts.Trace = log
	}
	var chrome *obs.ChromeSink
	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		chrome = obs.NewChromeSink(f)
		opts.Sinks = append(opts.Sinks, chrome)
	}

	// The sequential baseline is a virtual-time measurement; over a real
	// transport the run is timed by the wall clock, so a speedup against it
	// would compare incommensurable units. Skip it.
	var seq *core.Report
	if opts.Transport == "" {
		if seq, err = r.App.RunSeq(nil); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	rep := seq // a plain seq run is the baseline itself
	if r.Proto != core.ProtoSeq || opts.Trace != nil || opts.Sinks != nil || opts.Timeline || opts.PageStats || opts.Metrics != nil {
		rep, err = r.App.RunWith(r.Procs, r.Proto, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if log != nil {
			for _, e := range log.Tail(80) {
				fmt.Fprintln(stderr, "   ", e)
			}
		}
		return 1
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			fmt.Fprintf(stderr, "dsmrun: chrome trace: %v\n", err)
			return 1
		}
	}
	if reg != nil {
		if err := writeMetrics(*metricsPath, reg, stdout); err != nil {
			fmt.Fprintf(stderr, "dsmrun: metrics: %v\n", err)
			return 1
		}
	}

	if *jsonOut {
		return printJSON(stdout, stderr, r.App, rep, seq)
	}
	printReport(stdout, r.App, rep, seq)
	if spec.Timeline && rep.Timeline != nil {
		fmt.Fprintf(stdout, "\n  per-epoch timeline (%d epochs):\n", len(rep.Timeline.Epochs))
		rep.Timeline.WriteTable(stdout)
	}
	if *pageStatsN > 0 && rep.PageStats != nil {
		fmt.Fprintf(stdout, "\n  hottest pages:\n")
		rep.PageStats.WriteTop(stdout, *pageStatsN)
	}
	if log != nil {
		mode := "oldest kept"
		if *traceTail {
			mode = "newest kept"
		}
		fmt.Fprintf(stdout, "\n  protocol event summary (%d recorded, %d dropped, %s):\n",
			len(log.Events()), log.Dropped(), mode)
		log.WriteSummary(stdout)
		ev := log.Tail(40)
		fmt.Fprintln(stdout, "\n  last events:")
		for _, e := range ev {
			fmt.Fprintln(stdout, "   ", e)
		}
	}
	return 0
}

// flagNames spells the spec fields whose flag is not "-" plus the field
// name with its "faults." prefix dropped and "." and "_" as "-".
var flagNames = map[string]string{
	"faults.delay_ns": "-delay", "faults.seed": "-fault-seed", "faults.crashes": "-crash",
	"faults.crashes.restart_after": "-crash restartAfter", "faults.stragglers": "-straggler", "kv": "-kv-*",
}

// flagName spells a spec field as the flag that sets it.
func flagName(field string) string {
	if f, ok := flagNames[field]; ok {
		return f
	}
	return "-" + strings.NewReplacer("faults.", "", ".", "-", "_", "-").Replace(field)
}

// optional binds a flag to a spec field that stays unset, and so keeps
// its default, unless the flag is given.
func optional[T any](fs *flag.FlagSet, p **T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) error {
		v, err := parse(s)
		*p = &v
		return err
	})
}

// writeMetrics dumps the registry's final snapshot in Prometheus text
// exposition format, to stdout for "-" or to the named file.
func writeMetrics(path string, reg *metrics.Registry, stdout io.Writer) error {
	if path == "-" {
		return reg.WritePrometheus(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCheck executes the -check mode: the differential conformance harness
// over exactly the requested protocol, fault-free plus (when fault flags
// are set) the requested plan.
func runCheck(stdout, stderr io.Writer, r *apps.Run) int {
	if r.Proto == core.ProtoSeq {
		fmt.Fprintln(stderr, "dsmrun: -check holds a protocol to the sequential baseline; -proto seq is the baseline itself")
		return 2
	}
	copts := check.Options{
		Procs:        r.Procs,
		SegmentBytes: r.App.SegmentBytes,
		Protocols:    []core.ProtocolKind{r.Proto},
		Transport:    r.Opts.Transport,
	}
	if plan := r.Opts.Faults; plan != nil {
		for _, cr := range plan.Crashes {
			if cr.RestartAfter != 0 {
				// A node dead for a window (or forever) drains its epochs
				// behind the survivors, so epoch counts and checksums
				// legitimately diverge from the sequential baseline; only
				// an in-place restart is differential-checkable.
				fmt.Fprintf(stderr, "dsmrun: -check requires in-place restarts; -crash %d:%d has restartAfter %d (want 0)\n",
					cr.Node, cr.Epoch, cr.RestartAfter)
				return 2
			}
		}
		copts.Plans = []*netsim.FaultPlan{plan}
	}
	res, err := check.Differential(r.App.Body, copts)
	if err != nil {
		fmt.Fprintf(stderr, "dsmrun: %v\n", err)
		if res != nil && res.Report != "" {
			fmt.Fprintln(stderr, res.Report)
		}
		return 1
	}
	over := ""
	if copts.Transport != "" {
		over = " over " + copts.Transport
	}
	fmt.Fprintf(stdout, "conformance: %s under %v%s, %d procs: %d runs bit-identical to the sequential baseline\n",
		r.App.Name, r.Proto, over, r.Procs, len(res.Runs))
	for _, run := range res.Runs {
		fmt.Fprintf(stdout, "  %-6v %-12s checksum %#016x  epochs %d  benign same-word writes %d\n",
			run.Protocol, run.Variant, run.Checksum, run.Epochs, run.Benign)
	}
	return 0
}

// parseCrashes parses the -crash syntax, comma-separated
// node:epoch[:restartAfter] rules; core validates the rules themselves.
func parseCrashes(s string) ([]apps.CrashSpec, error) {
	var rules []apps.CrashSpec
	for _, one := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(one), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("want node:epoch[:restartAfter], got %q", one)
		}
		var c apps.CrashSpec
		restart := new(int)
		if err := atois(parts, []string{"node", "epoch", "restartAfter"}, &c.Node, &c.Epoch, restart); err != nil {
			return nil, err
		}
		if len(parts) == 3 {
			c.RestartAfter = restart
		}
		rules = append(rules, c)
	}
	return rules, nil
}

// parseStraggler parses the -straggler syntax,
// node:factor[:fromEpoch[:toEpoch]]; core validates the rule itself.
func parseStraggler(s string) (sr netsim.StragglerRule, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return sr, fmt.Errorf("want node:factor[:fromEpoch[:toEpoch]], got %q", s)
	}
	if sr.Factor, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return sr, fmt.Errorf("factor: %v", err)
	}
	ints := append([]string{parts[0]}, parts[2:]...)
	return sr, atois(ints, []string{"node", "fromEpoch", "toEpoch"}, &sr.Node, &sr.FromEpoch, &sr.ToEpoch)
}

// atois parses parts into dst in order; an error names the field.
func atois(parts, names []string, dst ...*int) error {
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("%s: %v", names[i], err)
		}
		*dst[i] = n
	}
	return nil
}

// jsonReport is the -json document: the run's Report (timeline included)
// plus the sequential baseline and derived speedup.
type jsonReport struct {
	App        string
	SeqElapsed sim.Duration
	Speedup    float64
	*core.Report
}

func printJSON(stdout, stderr io.Writer, app *apps.App, rep, seq *core.Report) int {
	doc := jsonReport{App: app.Name, Report: rep}
	if seq != nil {
		doc.SeqElapsed = seq.Elapsed
		doc.Speedup = rep.Speedup(seq.Elapsed)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	if err != nil {
		fmt.Fprintf(stderr, "dsmrun: json: %v\n", err)
		return 1
	}
	return 0
}

func printReport(w io.Writer, app *apps.App, r, seq *core.Report) {
	fmt.Fprintf(w, "%s under %s, %d procs\n", app.Name, r.Protocol, r.Procs)
	fmt.Fprintf(w, "  %s\n\n", app.Description)
	if seq != nil {
		fmt.Fprintf(w, "  elapsed (measured)   %v\n", r.Elapsed)
		fmt.Fprintf(w, "  sequential baseline  %v\n", seq.Elapsed)
		fmt.Fprintf(w, "  speedup              %.2f\n", r.Speedup(seq.Elapsed))
	} else {
		fmt.Fprintf(w, "  elapsed (wall clock) %v\n", r.Elapsed)
	}
	fmt.Fprintf(w, "  checksum             %#016x\n\n", r.Checksum)
	t := r.Total
	fmt.Fprintf(w, "  diffs %d (empty %d)  remote misses %d  page fetches %d  diff fetches %d\n",
		t.Diffs, t.EmptyDiffs, t.RemoteMisses, t.PageFetches, t.DiffFetches)
	fmt.Fprintf(w, "  messages %d  replies %d  data %d KB\n", t.Messages, t.Replies, t.DataBytes/1024)
	fmt.Fprintf(w, "  segvs %d  mprotects %d  twins %d\n", t.Segvs, t.Mprotects, t.Twins)
	fmt.Fprintf(w, "  updates sent %d (unneeded %d)  diffs stored %d  migrations %d  barriers %d\n",
		t.UpdatesSent, t.UpdatesUnneeded, t.DiffsStored, t.HomeMigrations, t.Barriers)
	if t.NetDrops+t.NetDups+t.NetDelays+t.Retransmits+t.DupSuppressed > 0 {
		fmt.Fprintf(w, "  faults: drops %d  dups %d  delays %d  retransmits %d  dups suppressed %d\n",
			t.NetDrops, t.NetDups, t.NetDelays, t.Retransmits, t.DupSuppressed)
	}
	if t.StaleSkips+t.StaleRefetches > 0 {
		fmt.Fprintf(w, "  overdrive: stale skips %d  stale refetches %d\n", t.StaleSkips, t.StaleRefetches)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  time breakdown per node (app/os/sigio/wait):\n")
	for i, bd := range r.Breakdowns {
		af, of, sf, wf := bd.Fractions()
		fmt.Fprintf(w, "    node %d: %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n", i, af*100, of*100, sf*100, wf*100)
	}
}
