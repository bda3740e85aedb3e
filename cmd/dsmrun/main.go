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
	"godsm/internal/kvload"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/obs"
	"godsm/internal/sim"
	"godsm/internal/trace"
	"godsm/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted, so tests can drive the
// full flag surface in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "jacobi", "application: barnes expl fft jacobi shallow sor swm tomcat kv")
	protoName := fs.String("proto", "bar-u", "protocol: seq lmw-i lmw-u bar-i bar-u bar-s bar-m adaptive")
	procs := fs.Int("procs", 8, "cluster size")
	small := fs.Bool("small", false, "use the reduced application size")
	traceN := fs.Int("trace", 0, "record up to N protocol events and print a summary plus the last 40")
	traceTail := fs.Bool("trace-tail", false, "with -trace, keep the newest N events instead of the oldest")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report (with per-epoch timeline) as JSON")
	chromePath := fs.String("chrome-trace", "", "write protocol events to `file` in Chrome trace_event format")
	timeline := fs.Bool("timeline", false, "print the per-epoch statistics table")
	pageStatsN := fs.Int("pagestats", 0, "print the N hottest pages by protocol activity")
	loss := fs.Float64("loss", 0, "fault injection: drop this fraction of remote packets")
	dup := fs.Float64("dup", 0, "fault injection: duplicate this fraction of remote packets")
	reorder := fs.Float64("reorder", 0, "fault injection: delay (reorder) this fraction of remote packets")
	delay := fs.Duration("delay", 0, "fault injection: maximum extra latency for -reorder (0 = 500µs); with -reorder 0, delay every packet by up to this")
	straggler := fs.String("straggler", "", "fault injection: slow one node, as node:factor[:fromEpoch[:toEpoch]]")
	crash := fs.String("crash", "", "fault injection: crash nodes at barriers, as node:epoch[:restartAfter] (comma-separated; restartAfter 0 restarts in place, omitted never restarts)")
	transportName := fs.String("transport", "", "transport backend: sim (the default simulator) or a real one — mem (in-process channels), udp (loopback datagrams), tcp (persistent streams)")
	metricsPath := fs.String("metrics", "", "write the run's final metrics snapshot to `file` in Prometheus text format (- for stdout)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the fault-injection schedule")
	checkRun := fs.Bool("check", false, "differential conformance: hold this protocol (fault flags included) bit-for-bit to the sequential baseline under the consistency oracle")
	kvDef := apps.KVDefault()
	kvOps := fs.Int("kv-ops", kvDef.Ops, "kv: total operation budget across all streams and epochs")
	kvKeys := fs.Int("kv-keys", kvDef.Keys, "kv: key-space size")
	kvShards := fs.Int("kv-shards", kvDef.Shards, "kv: hash-shard count (>= -procs so every node owns a shard)")
	kvStreams := fs.Int("kv-streams", kvDef.Streams, "kv: open-loop request-stream count (fixed across cluster sizes)")
	kvDist := fs.String("kv-dist", kvDef.Dist.String(), "kv: key popularity: uniform, zipf=S, or hotset=FRAC/KEYS")
	kvMix := fs.String("kv-mix", "", "kv: request mix, e.g. write=0.2,scan=0.05,scanlen=16 (empty = default mix)")
	kvWrite := fs.Float64("kv-write", kvDef.Mix.Write, "kv: put fraction in [0,1] (shorthand for the -kv-mix write term)")
	kvEpochs := fs.Int("kv-epochs", kvDef.Measure, "kv: measured stats epochs")
	kvSeed := fs.Uint64("kv-seed", kvDef.Seed, "kv: traffic generator seed")
	kvStatsEvery := fs.Int("kv-stats-every", kvDef.StatsEvery, "kv: carry the cluster-wide op-counter reduction every N epochs")
	kvLocks := fs.Bool("kv-locks", false, "kv: bracket each shard's apply phase in per-shard locks (lmw protocols only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Reject nonsensical configurations before running anything: a negative
	// loss rate, an inert straggler factor, or a probability above 1 would
	// otherwise be silently clamped or ignored by the fault injector, and
	// the run would measure something other than what was asked for.
	if *procs < 1 {
		fmt.Fprintf(stderr, "dsmrun: -procs %d: cluster needs at least 1 node\n", *procs)
		return 2
	}
	for _, p := range []struct {
		name string
		val  float64
	}{{"loss", *loss}, {"dup", *dup}, {"reorder", *reorder}} {
		if p.val < 0 || p.val > 1 {
			fmt.Fprintf(stderr, "dsmrun: -%s %g: must be a probability in [0, 1]\n", p.name, p.val)
			return 2
		}
	}
	if *delay < 0 {
		fmt.Fprintf(stderr, "dsmrun: -delay %v: extra latency cannot be negative\n", *delay)
		return 2
	}
	if *transportName != "" {
		e, ok := transport.Lookup(*transportName)
		if !ok {
			fmt.Fprintf(stderr, "dsmrun: -transport %q: unknown backend (have %s)\n",
				*transportName, strings.Join(transport.Names(), ", "))
			fs.Usage()
			return 2
		}
		if e.Virtual {
			*transportName = "" // "sim" is the default simulator
		}
	}
	if *metricsPath != "" && *checkRun {
		// The conformance harness builds its own configurations and ignores
		// RunOpts; the registry would come back empty, silently measuring
		// nothing.
		fmt.Fprintln(stderr, "dsmrun: -metrics cannot be combined with -check (the conformance harness ignores run options)")
		return 2
	}
	if *transportName != "" && *straggler != "" {
		// Stragglers multiply modeled compute time, which only exists under
		// the virtual clock; on a real transport the wall clock is measured,
		// not modeled, so the rule would silently do nothing.
		fmt.Fprintf(stderr, "dsmrun: -straggler only means something under the sim clock; it cannot be combined with -transport %s\n",
			*transportName)
		return 2
	}

	proto, err := core.ParseProtocol(*protoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *transportName != "" && proto == core.ProtoSeq {
		fmt.Fprintf(stderr, "dsmrun: -transport %s needs a parallel protocol; seq has no remote traffic\n", *transportName)
		return 2
	}
	if *crash != "" && proto == core.ProtoSeq {
		fmt.Fprintln(stderr, "dsmrun: -crash needs a DSM protocol; seq has no cluster to crash")
		return 2
	}
	// The kv flag surface only means something for -app kv; a kv knob on
	// a stencil run would silently measure something other than asked.
	kvFlagSet := false
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "kv-") {
			kvFlagSet = true
		}
	})
	if kvFlagSet && *appName != "kv" {
		fmt.Fprintf(stderr, "dsmrun: -kv-* flags only apply to -app kv (got -app %s)\n", *appName)
		return 2
	}

	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.New()
	}

	var app *apps.App
	if *appName == "kv" {
		// Nonsensical traffic parameters exit 2 before any run starts,
		// like the fault flags: a negative op budget, a fraction outside
		// [0,1] or a zipf exponent below zero would otherwise be rejected
		// deep in the workload builder (or worse, silently clamped).
		if *kvOps < 0 {
			fmt.Fprintf(stderr, "dsmrun: -kv-ops %d: the op budget cannot be negative\n", *kvOps)
			return 2
		}
		if *kvWrite < 0 || *kvWrite > 1 {
			fmt.Fprintf(stderr, "dsmrun: -kv-write %g: must be a fraction in [0, 1]\n", *kvWrite)
			return 2
		}
		if *kvShards < *procs {
			fmt.Fprintf(stderr, "dsmrun: -kv-shards %d: want at least one shard per node (-procs %d)\n", *kvShards, *procs)
			return 2
		}
		if *kvLocks && proto != core.ProtoLmwI && proto != core.ProtoLmwU && proto != core.ProtoSeq {
			fmt.Fprintf(stderr, "dsmrun: -kv-locks needs a homeless protocol (lmw-i, lmw-u); %v is barrier-only\n", proto)
			return 2
		}
		cfg := apps.KVDefault()
		if *small {
			cfg = apps.KVSmall()
		}
		// Explicitly-set flags override either base config; untouched
		// flags keep the -small/default values.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "kv-ops":
				cfg.Ops = *kvOps
			case "kv-keys":
				cfg.Keys = *kvKeys
			case "kv-shards":
				cfg.Shards = *kvShards
			case "kv-streams":
				cfg.Streams = *kvStreams
			case "kv-epochs":
				cfg.Measure = *kvEpochs
			case "kv-seed":
				cfg.Seed = *kvSeed
			case "kv-stats-every":
				cfg.StatsEvery = *kvStatsEvery
			}
		})
		cfg.Locks = *kvLocks
		var err error
		if cfg.Dist, err = kvload.ParseDist(*kvDist); err != nil {
			fmt.Fprintf(stderr, "dsmrun: -kv-dist: %v\n", err)
			return 2
		}
		if cfg.Mix, err = kvload.ParseMix(*kvMix); err != nil {
			fmt.Fprintf(stderr, "dsmrun: -kv-mix: %v\n", err)
			return 2
		}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "kv-write" {
				cfg.Mix.Write = *kvWrite
			}
		})
		cfg.Metrics = reg // godsm_kv_* series join the -metrics snapshot
		if app, err = apps.KV(cfg); err != nil {
			fmt.Fprintf(stderr, "dsmrun: %v\n", err)
			return 2
		}
	} else {
		list := apps.All()
		if *small {
			list = apps.Small()
		}
		for _, a := range list {
			if a.Name == *appName {
				app = a
			}
		}
		if app == nil {
			fmt.Fprintf(stderr, "dsmrun: unknown application %q (have %s)\n", *appName, strings.Join(apps.Names(), ", "))
			return 2
		}
	}

	opts := apps.RunOpts{
		Timeline:  *jsonOut || *timeline,
		PageStats: *pageStatsN > 0,
		Transport: *transportName,
		Metrics:   reg,
	}
	plan, err := buildFaultPlan(*loss, *dup, *reorder, *delay, *straggler, *crash, *faultSeed, *procs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opts.Faults = plan

	if *checkRun {
		if plan != nil {
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
		}
		return runCheck(stdout, stderr, app, proto, *procs, plan, *transportName)
	}

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
	if *transportName == "" {
		if seq, err = app.RunSeq(nil); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var rep *core.Report
	if proto == core.ProtoSeq {
		if opts.Trace == nil && opts.Sinks == nil && !opts.Timeline && !opts.PageStats && opts.Metrics == nil {
			rep = seq
		} else {
			rep, err = app.RunSeqWith(opts)
		}
	} else {
		rep, err = app.RunWith(*procs, proto, opts)
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
		return printJSON(stdout, stderr, app, rep, seq)
	}
	printReport(stdout, app, rep, seq)
	if *timeline && rep.Timeline != nil {
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
func runCheck(stdout, stderr io.Writer, app *apps.App, proto core.ProtocolKind, procs int, plan *netsim.FaultPlan, transportName string) int {
	if proto == core.ProtoSeq {
		fmt.Fprintln(stderr, "dsmrun: -check holds a protocol to the sequential baseline; -proto seq is the baseline itself")
		return 2
	}
	if app.Dynamic && (proto == core.ProtoBarS || proto == core.ProtoBarM) {
		fmt.Fprintf(stderr, "dsmrun: %s has a dynamic sharing pattern; %v would abort (the paper excludes it)\n", app.Name, proto)
		return 2
	}
	copts := check.Options{
		Procs:        procs,
		SegmentBytes: app.SegmentBytes,
		Protocols:    []core.ProtocolKind{proto},
		Transport:    transportName,
	}
	if plan != nil {
		copts.Plans = []*netsim.FaultPlan{plan}
	}
	res, err := check.Differential(app.Body, copts)
	if err != nil {
		fmt.Fprintf(stderr, "dsmrun: %v\n", err)
		if res != nil && res.Report != "" {
			fmt.Fprintln(stderr, res.Report)
		}
		return 1
	}
	over := ""
	if transportName != "" {
		over = " over " + transportName
	}
	fmt.Fprintf(stdout, "conformance: %s under %v%s, %d procs: %d runs bit-identical to the sequential baseline\n",
		app.Name, proto, over, procs, len(res.Runs))
	for _, run := range res.Runs {
		fmt.Fprintf(stdout, "  %-6v %-12s checksum %#016x  epochs %d  benign same-word writes %d\n",
			run.Protocol, run.Variant, run.Checksum, run.Epochs, run.Benign)
	}
	return 0
}

// buildFaultPlan assembles a netsim.FaultPlan from the fault-injection
// flags; nil when every knob is off.
func buildFaultPlan(loss, dup, reorder float64, delay time.Duration, straggler, crash string, seed int64, procs int) (*netsim.FaultPlan, error) {
	if loss == 0 && dup == 0 && reorder == 0 && delay == 0 && straggler == "" && crash == "" {
		return nil, nil
	}
	plan := &netsim.FaultPlan{Seed: seed}
	if loss > 0 || dup > 0 || reorder > 0 || delay > 0 {
		if reorder == 0 && delay > 0 {
			// -delay alone means "add latency to every packet".
			reorder = 1
		}
		plan.Rules = append(plan.Rules, netsim.FaultRule{
			From:    netsim.AnyNode,
			To:      netsim.AnyNode,
			Drop:    loss,
			Dup:     dup,
			Reorder: reorder,
			Delay:   sim.Duration(delay.Nanoseconds()),
		})
	}
	if straggler != "" {
		sr, err := parseStraggler(straggler, procs)
		if err != nil {
			return nil, err
		}
		plan.Stragglers = append(plan.Stragglers, sr)
	}
	if crash != "" {
		rules, err := parseCrashes(crash, procs)
		if err != nil {
			return nil, err
		}
		plan.Crashes = rules
	}
	return plan, nil
}

// parseCrashes parses and validates the -crash schedule: comma-separated
// node:epoch[:restartAfter] rules. The same schedules the engine would
// reject (config.validateCrashes) are errors here so a bad flag exits 2
// before any run starts; restartAfter must be >= 0 when given (omitting
// it means the node never restarts — there is no separate sentinel).
func parseCrashes(s string, procs int) ([]netsim.CrashRule, error) {
	var rules []netsim.CrashRule
	seen := make(map[int]bool)
	for _, one := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(one), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("dsmrun: -crash wants node:epoch[:restartAfter], got %q", one)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("dsmrun: -crash node: %v", err)
		}
		if node == 0 {
			return nil, fmt.Errorf("dsmrun: -crash node 0: node 0 hosts the barrier manager and the reduction root; it cannot crash")
		}
		if node < 1 || node >= procs {
			return nil, fmt.Errorf("dsmrun: -crash node %d: cluster has nodes 0..%d (and node 0 cannot crash)", node, procs-1)
		}
		if seen[node] {
			return nil, fmt.Errorf("dsmrun: -crash node %d appears twice; one rule per node", node)
		}
		seen[node] = true
		epoch, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("dsmrun: -crash epoch: %v", err)
		}
		if epoch < 1 {
			return nil, fmt.Errorf("dsmrun: -crash epoch %d: the first crashable barrier is epoch 1 (epoch 0 is initialization)", epoch)
		}
		rule := netsim.CrashRule{Node: node, Epoch: epoch, RestartAfter: -1}
		if len(parts) == 3 {
			restart, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("dsmrun: -crash restartAfter: %v", err)
			}
			if restart < 0 {
				return nil, fmt.Errorf("dsmrun: -crash restartAfter %d: must be >= 0 (omit the field for a node that never restarts)", restart)
			}
			rule.RestartAfter = restart
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// parseStraggler parses and validates "node:factor[:fromEpoch[:toEpoch]]".
// A rule the injector would silently ignore — a factor at or below 1, or a
// node outside the cluster — is an error, not a no-op run.
func parseStraggler(s string, procs int) (netsim.StragglerRule, error) {
	var sr netsim.StragglerRule
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return sr, fmt.Errorf("dsmrun: -straggler wants node:factor[:fromEpoch[:toEpoch]], got %q", s)
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return sr, fmt.Errorf("dsmrun: -straggler node: %v", err)
	}
	if node != netsim.AnyNode && (node < 0 || node >= procs) {
		return sr, fmt.Errorf("dsmrun: -straggler node %d: cluster has nodes 0..%d (or %d for all)",
			node, procs-1, netsim.AnyNode)
	}
	factor, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return sr, fmt.Errorf("dsmrun: -straggler factor: %v", err)
	}
	if factor <= 1 {
		return sr, fmt.Errorf("dsmrun: -straggler factor %g: must exceed 1 (it multiplies compute time; the injector ignores smaller values)", factor)
	}
	sr = netsim.StragglerRule{Node: node, Factor: factor}
	if len(parts) >= 3 {
		if sr.FromEpoch, err = strconv.Atoi(parts[2]); err != nil {
			return sr, fmt.Errorf("dsmrun: -straggler fromEpoch: %v", err)
		}
		if sr.FromEpoch < 0 {
			return sr, fmt.Errorf("dsmrun: -straggler fromEpoch %d: epochs start at 0", sr.FromEpoch)
		}
	}
	if len(parts) == 4 {
		if sr.ToEpoch, err = strconv.Atoi(parts[3]); err != nil {
			return sr, fmt.Errorf("dsmrun: -straggler toEpoch: %v", err)
		}
		if sr.ToEpoch != 0 && sr.ToEpoch < sr.FromEpoch {
			return sr, fmt.Errorf("dsmrun: -straggler window [%d, %d] is empty: toEpoch must be 0 (open) or at least fromEpoch",
				sr.FromEpoch, sr.ToEpoch)
		}
	}
	return sr, nil
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
