package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONOutputHasTimeline pins the acceptance criterion: -json emits a
// valid JSON document whose timeline has one entry per barrier.
func TestJSONOutputHasTimeline(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small", "-json"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	var doc struct {
		App      string
		Protocol string
		Procs    int
		Speedup  float64
		Total    struct{ Barriers int64 }
		Timeline *struct {
			Epochs []struct {
				Epoch   int
				PerNode []struct{ Node int }
			}
		}
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if doc.App != "jacobi" || doc.Protocol != "bar-u" || doc.Procs != 4 {
		t.Fatalf("wrong run identity: %+v", doc)
	}
	if doc.Timeline == nil || len(doc.Timeline.Epochs) == 0 {
		t.Fatal("-json output carries no timeline")
	}
	// One epoch per barrier: Total.Barriers counts the measured window
	// only, but every node passes the same barrier sequence, so the
	// timeline (whole run) must have exactly as many epochs as any single
	// node has barriers — checked per-node below, and the measured-window
	// barrier count must not exceed it.
	perNodeMeasured := int(doc.Total.Barriers) / doc.Procs
	if len(doc.Timeline.Epochs) < perNodeMeasured {
		t.Fatalf("timeline has %d epochs, fewer than the %d measured barriers per node",
			len(doc.Timeline.Epochs), perNodeMeasured)
	}
	for i, e := range doc.Timeline.Epochs {
		if e.Epoch != i {
			t.Fatalf("epoch %d carries index %d", i, e.Epoch)
		}
		if len(e.PerNode) != doc.Procs {
			t.Fatalf("epoch %d has %d node samples, want %d", i, len(e.PerNode), doc.Procs)
		}
	}
}

// TestMetricsSnapshot drives -metrics: the file is Prometheus text with
// non-zero core counters labelled by the protocol that ran.
func TestMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small", "-metrics", path},
		&out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE godsm_messages_total counter",
		`godsm_runs_total{protocol="bar-u",status="ok"} 1`,
		`godsm_messages_total{protocol="bar-u"}`,
		`godsm_barriers_total{protocol="bar-u"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics file missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, `godsm_messages_total{protocol="bar-u"} 0`) {
		t.Error("message counter is zero after a parallel run")
	}
}

// TestMetricsToStdout drives -metrics -: the snapshot lands on stdout
// next to the report.
func TestMetricsToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "seq", "-small", "-metrics", "-"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `godsm_runs_total{protocol="seq",status="ok"} 1`) {
		t.Fatalf("stdout is missing the seq run counter:\n%s", out.String())
	}
}

// TestMetricsCheckConflict pins the flag-validation convention: -metrics
// with -check would silently measure nothing, so it exits 2.
func TestMetricsCheckConflict(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-small", "-check", "-metrics", "-"},
		&out, &errb)
	if code != 2 {
		t.Fatalf("dsmrun exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-metrics cannot be combined with -check") {
		t.Fatalf("stderr does not explain the conflict: %s", errb.String())
	}
}

// TestChromeTraceFileParses pins the other CLI acceptance criterion: the
// -chrome-trace file is a loadable Chrome trace_event document.
func TestChromeTraceFileParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, errb bytes.Buffer
	code := run([]string{"-app", "sor", "-proto", "bar-u", "-procs", "4", "-small",
		"-chrome-trace", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Tid int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace file does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace file has no events")
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("chrome trace has no barrier slices")
	}
}

// TestTimelineAndPageStatsTables checks the human-readable surfaces.
func TestTimelineAndPageStatsTables(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "sor", "-proto", "bar-u", "-procs", "4", "-small",
		"-timeline", "-pagestats", "5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "per-epoch timeline") || !strings.Contains(s, "epoch") {
		t.Errorf("missing timeline table in output:\n%s", s)
	}
	if !strings.Contains(s, "hottest pages") || !strings.Contains(s, "page") {
		t.Errorf("missing hot-page table in output:\n%s", s)
	}
}

// TestTraceTailMode drives the ring-retention satellite end to end: a tiny
// cap must drop events yet keep the newest ones.
func TestTraceTailMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "sor", "-proto", "bar-u", "-procs", "4", "-small",
		"-trace", "16", "-trace-tail"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "newest kept") {
		t.Errorf("tail mode not reported:\n%s", s)
	}
	if !strings.Contains(s, "16 recorded") {
		t.Errorf("expected the ring to stay full at its cap:\n%s", s)
	}
}

// TestBadFlagsExitCode keeps CLI error paths stable.
func TestBadFlagsExitCode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-app", "nosuch"}, &out, &errb); code != 2 {
		t.Errorf("unknown app: exit %d, want 2", code)
	}
	if code := run([]string{"-proto", "nosuch"}, &out, &errb); code != 2 {
		t.Errorf("unknown protocol: exit %d, want 2", code)
	}
}

// TestWorkersFlagRemoved pins the removal of the sharded-kernel knob:
// -workers is an unknown flag, so the run is refused before it starts.
func TestWorkersFlagRemoved(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-small", "-procs", "2", "-workers", "4"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "flag provided but not defined: -workers") {
		t.Errorf("diagnostic does not name the unknown flag:\n%s", errb.String())
	}
}

// TestFaultFlagValidation drives the flag-validation bugfix: every
// nonsensical fault configuration must be rejected up front with exit code
// 2 and an error naming the offending flag, instead of silently running an
// experiment that measures nothing.
func TestFaultFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"negative loss", []string{"-loss", "-0.1"}, "-loss"},
		{"loss above one", []string{"-loss", "1.5"}, "-loss"},
		{"dup above one", []string{"-dup", "1.5"}, "-dup"},
		{"negative dup", []string{"-dup", "-0.5"}, "-dup"},
		{"negative reorder", []string{"-reorder", "-1"}, "-reorder"},
		{"reorder above one", []string{"-reorder", "2"}, "-reorder"},
		{"negative delay", []string{"-delay", "-5ms"}, "-delay"},
		{"zero procs", []string{"-procs", "0"}, "-procs"},
		{"negative procs", []string{"-procs", "-3"}, "-procs"},
		{"procs past the copyset bound", []string{"-procs", "1000"}, "-procs"},
		{"dynamic app under overdrive", []string{"-app", "barnes", "-proto", "bar-s"}, "dynamic"},
		{"straggler zero factor", []string{"-straggler", "1:0"}, "factor"},
		{"straggler inert factor", []string{"-straggler", "1:1"}, "factor"},
		{"straggler negative factor", []string{"-straggler", "1:-2"}, "factor"},
		{"straggler node out of range", []string{"-procs", "8", "-straggler", "9:2"}, "node"},
		{"straggler node below AnyNode", []string{"-straggler", "-2:2"}, "node"},
		{"straggler negative fromEpoch", []string{"-straggler", "1:2:-1"}, "fromEpoch"},
		{"straggler empty window", []string{"-straggler", "1:2:5:3"}, "window"},
		{"straggler malformed", []string{"-straggler", "1"}, "straggler"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-app", "jacobi", "-small"}, tc.args...)
			code := run(args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", errb.String(), tc.want)
			}
		})
	}
}

// TestCrashFlagValidation mirrors the fault-flag suite for -crash: every
// schedule the engine would reject must exit 2 up front with a
// diagnostic naming what is wrong, not die mid-run.
func TestCrashFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"malformed rule", []string{"-crash", "2"}, "node:epoch"},
		{"too many fields", []string{"-crash", "2:3:0:1"}, "node:epoch"},
		{"non-numeric node", []string{"-crash", "x:3"}, "node"},
		{"node zero", []string{"-crash", "0:3"}, "node 0"},
		{"node out of range", []string{"-procs", "4", "-crash", "4:3"}, "cluster has nodes"},
		{"negative node", []string{"-crash", "-1:3"}, "node"},
		{"duplicate node", []string{"-procs", "4", "-crash", "2:3,2:5"}, "appears twice"},
		{"non-numeric epoch", []string{"-crash", "2:x"}, "epoch"},
		{"epoch zero", []string{"-crash", "2:0"}, "epoch 0"},
		{"negative epoch", []string{"-crash", "2:-1"}, "epoch"},
		{"non-numeric restart", []string{"-crash", "2:3:x"}, "restartAfter"},
		{"negative restart", []string{"-crash", "2:3:-1"}, "restartAfter"},
		{"crash under seq", []string{"-proto", "seq", "-crash", "2:3"}, "seq"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-app", "jacobi", "-small"}, tc.args...)
			code := run(args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", errb.String(), tc.want)
			}
		})
	}
}

// TestCrashFlagCheckConflict pins the -check interaction: only in-place
// restarts are differential-checkable, so a dead-window or dead-forever
// rule under -check exits 2.
func TestCrashFlagCheckConflict(t *testing.T) {
	for _, rule := range []string{"2:3", "2:3:1"} {
		var out, errb bytes.Buffer
		code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
			"-check", "-crash", rule}, &out, &errb)
		if code != 2 {
			t.Fatalf("-check -crash %s exited %d, want 2 (%s)", rule, code, errb.String())
		}
		if !strings.Contains(errb.String(), "in-place restarts") {
			t.Fatalf("diagnostic does not explain the -check conflict: %s", errb.String())
		}
	}
}

// TestCrashFlagRunEndToEnd drives a crash-and-restart run through the
// CLI and a -check run with an in-place restart plan.
func TestCrashFlagRunEndToEnd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
		"-crash", "2:3:0", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun -crash exited %d: %s", code, errb.String())
	}
	var doc struct {
		Total struct{ Crashes, Restarts int64 }
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if doc.Total.Crashes != 1 || doc.Total.Restarts != 1 {
		t.Fatalf("crash counters = %d/%d, want 1/1", doc.Total.Crashes, doc.Total.Restarts)
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
		"-check", "-crash", "2:3:0"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun -check -crash exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "bit-identical") {
		t.Fatalf("conformance summary incomplete:\n%s", out.String())
	}
}

// TestValidFaultFlagsStillRun guards the other side: a sensible fault
// configuration passes validation and the run completes.
func TestValidFaultFlagsStillRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
		"-loss", "0.05", "-dup", "0.02", "-reorder", "0.1", "-straggler", "-1:2:0:3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "faults:") {
		t.Errorf("fault counters missing from report:\n%s", out.String())
	}
}

// TestTransportFlagValidation mirrors the fault-flag suite for -transport:
// an unknown backend and every sim-clock-only flag combination must be
// rejected up front with exit code 2, not discovered mid-run.
func TestTransportFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"unknown backend", []string{"-transport", "rdma"}, "-transport"},
		{"misspelled backend", []string{"-transport", "memm"}, "unknown backend"},
		{"straggler over mem", []string{"-transport", "mem", "-straggler", "1:2"}, "straggler"},
		{"straggler over udp", []string{"-transport", "udp", "-straggler", "1:2"}, "straggler"},
		{"seq over transport", []string{"-transport", "mem", "-proto", "seq"}, "seq"},
		{"crash over mem", []string{"-transport", "mem", "-crash", "2:3"}, "transport mem"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-app", "jacobi", "-small"}, tc.args...)
			code := run(args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", errb.String(), tc.want)
			}
		})
	}

	// An unknown backend additionally prints the flag usage, so the user
	// sees the valid values without a second invocation.
	var out, errb bytes.Buffer
	if code := run([]string{"-transport", "rdma"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "Usage of dsmrun") {
		t.Errorf("unknown backend did not print usage:\n%s", errb.String())
	}
}

// TestTransportRunEndToEnd drives a real mem-backend run through the CLI:
// wall-clock reporting (no virtual-time speedup), and the loss/dup fault
// flags still compose with a real transport.
func TestTransportRunEndToEnd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
		"-transport", "mem", "-loss", "0.05", "-dup", "0.02"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun -transport mem exited %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "elapsed (wall clock)") {
		t.Errorf("wall-clock elapsed missing:\n%s", s)
	}
	if strings.Contains(s, "speedup") {
		t.Errorf("virtual-time speedup printed for a wall-clock run:\n%s", s)
	}
	if !strings.Contains(s, "faults:") {
		t.Errorf("fault counters missing from report:\n%s", s)
	}
}

// TestCheckOverTransport combines -check with -transport: the real runtime
// is held bit-for-bit to the simulated sequential baseline.
func TestCheckOverTransport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
		"-check", "-transport", "mem"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun -check -transport mem exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "over mem") || !strings.Contains(out.String(), "bit-identical") {
		t.Fatalf("conformance summary incomplete:\n%s", out.String())
	}
}

// TestCheckMode drives -check end to end: a conforming run exits 0 and
// reports every variant; seq and dynamic-app overdrive are rejected.
func TestCheckMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-proto", "bar-u", "-procs", "4", "-small",
		"-check", "-loss", "0.05", "-fault-seed", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("dsmrun -check exited %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "bit-identical") || !strings.Contains(s, "plan[0]") {
		t.Fatalf("conformance summary incomplete:\n%s", s)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-proto", "seq", "-small", "-check"}, &out, &errb); code != 2 {
		t.Fatalf("-check -proto seq exited %d, want 2 (%s)", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-app", "barnes", "-proto", "bar-s", "-small", "-check"}, &out, &errb)
	if code != 2 || !strings.Contains(errb.String(), "dynamic") {
		t.Fatalf("-check on dynamic app under overdrive exited %d: %s", code, errb.String())
	}
}

// TestKVFlagValidation mirrors the fault-flag suite for the datastore
// workload's traffic knobs: every parameter the workload builder would
// reject must exit 2 up front with a diagnostic naming the flag.
func TestKVFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"negative ops", []string{"-kv-ops", "-1"}, "-kv-ops"},
		{"negative write", []string{"-kv-write", "-0.1"}, "-kv-write"},
		{"write above one", []string{"-kv-write", "1.5"}, "-kv-write"},
		{"negative zipf", []string{"-kv-dist", "zipf=-1"}, "zipf"},
		{"unknown dist", []string{"-kv-dist", "pareto"}, "unknown distribution"},
		{"bad hotset", []string{"-kv-dist", "hotset=2/64"}, "hotset"},
		{"bad mix term", []string{"-kv-mix", "reads=0.5"}, "mix"},
		{"mix over one", []string{"-kv-mix", "write=0.7,scan=0.7"}, "exceeds 1"},
		{"zero scanlen", []string{"-kv-mix", "scanlen=0"}, "scan length"},
		{"shards below procs", []string{"-procs", "8", "-kv-shards", "4"}, "shard per node"},
		{"default shards below procs", []string{"-procs", "32"}, "-kv-shards"},
		{"zero shards", []string{"-procs", "1", "-kv-shards", "0"}, "-kv-shards"},
		{"zero keys", []string{"-kv-keys", "0"}, "keys"},
		{"zero streams", []string{"-kv-streams", "0"}, "streams"},
		{"zero epochs", []string{"-kv-epochs", "0"}, "epochs"},
		{"zero stats period", []string{"-kv-stats-every", "0"}, "stats"},
		{"locks under bar", []string{"-kv-locks", "-proto", "bar-u"}, "homeless"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-app", "kv", "-small", "-procs", "4"}, tc.args...)
			// Case-specific -procs wins: flag packages use the last value.
			code := run(args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", errb.String(), tc.want)
			}
		})
	}
}

// TestKVFlagsRequireKVApp: a kv traffic knob on a stencil run is a
// configuration error, not a silent no-op.
func TestKVFlagsRequireKVApp(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "jacobi", "-small", "-kv-ops", "1000"}, &out, &errb)
	if code != 2 || !strings.Contains(errb.String(), "-app kv") {
		t.Fatalf("exit %d, stderr %q; want 2 mentioning -app kv", code, errb.String())
	}
}

// TestUnknownAppListsNames pins the ByName satellite at the CLI surface:
// the unknown-application diagnostic carries the valid set.
func TestUnknownAppListsNames(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "memcached"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range []string{"jacobi", "barnes", "kv"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("diagnostic %q does not list %q", errb.String(), want)
		}
	}
}

// TestKVRunEndToEnd drives a small kv run through the full flag surface:
// plain, with explicit traffic knobs, under -check, and with locks on a
// homeless protocol.
func TestKVRunEndToEnd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "kv", "-proto", "bar-u", "-procs", "4", "-small",
		"-kv-ops", "8000", "-kv-dist", "zipf=1.2", "-kv-write", "0.5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("kv run exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "kv under bar-u") || !strings.Contains(out.String(), "checksum") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-app", "kv", "-proto", "lmw-i", "-procs", "4", "-small",
		"-kv-ops", "8000", "-kv-locks", "-check"}, &out, &errb)
	if code != 0 {
		t.Fatalf("kv -kv-locks -check exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "bit-identical") {
		t.Fatalf("conformance summary incomplete:\n%s", out.String())
	}
}
