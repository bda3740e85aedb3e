// Command benchmark is godsm's wall-clock benchmark: six workloads, five
// end-to-end metrics on each, and a traced pass with per-layer probes.
// See README.md beside this file for the metric glossary, the workload
// rationale and the layer → end-to-end predictions.
//
//	go run ./benchmark                          # every workload, untraced then traced
//	go run ./benchmark -workload rt-udp -trace 0 -seconds 12
//	go run ./benchmark -out run1.json           # append the results to a set
//	go run ./benchmark -compare run1.json run2.json
//
// With -workload the last line of standard output is one JSON object in
// the format BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"time"
)

// header records where and how a result was measured.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds,omitempty"`
}

func newHeader(seed uint64, seconds int) header {
	return header{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
	}
}

// commit asks git for the checked-out revision; a checkout that is not a
// repository (the benchmark driver's) has none.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one `workload` and end with the driver's JSON line (default: all six)")
		seed    = fs.Uint64("seed", 1, "workload seed; reaches KVConfig.Seed of every kv cell")
		seconds = fs.Int("seconds", 0, "measure each pass for about this many seconds instead of the workload's fixed rounds")
		trace   = fs.Int("trace", -1, "0: untraced pass only; 1: traced pass and layer probes; default: both")
		out     = fs.String("out", "", "append the results to this JSON `file` (a set of runs for -compare)")
		spans   = fs.String("spans", "", "append the traced pass's spans to this JSONL `file`")
		compare = fs.Bool("compare", false, "compare two result files given as arguments and exit non-zero on a regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	list := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		list = []*workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	hdr := newHeader(*seed, *seconds)
	fmt.Fprintf(stdout, "godsm benchmark  commit=%s  %s  nproc=%d  GOMAXPROCS=%d  seed=%d\n",
		hdr.Commit, hdr.GoVersion, hdr.NProc, hdr.GoMaxProcs, hdr.Seed)
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), untraced: *trace != 1, traced: *trace != 0,
		setups: 1, probeBudget: time.Second, minSamples: 2000}
	if *seconds > 0 {
		// A run under a time budget is one of many the driver compares:
		// set up three times for a steady median, and scale the probes to
		// the budget.
		cfg.setups = 3
		cfg.probeBudget = time.Duration(*seconds) * time.Second / 20
	}
	var records []record
	code := 0
	for _, w := range list {
		r, err := runWorkload(ctx, w, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if *spans != "" {
			if err := rec.writeJSONL(*spans); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		rec.reset()
		records = append(records, *r)
		if r.Failed > 0 {
			code = 1
		}
	}
	if *out != "" {
		if err := appendResults(*out, hdr, records); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name != "" {
		// The driver reads the last line: end-to-end metrics of the
		// untraced pass, or every per-layer metric after a traced one.
		line, err := json.Marshal(driverLine(&records[0], *trace == 1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
