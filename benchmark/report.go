package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"godsm/internal/metrics"
)

// runConfig is how one invocation measures every workload it runs.
type runConfig struct {
	seed     uint64
	seconds  float64 // 0: the workload's fixed rounds
	untraced bool    // print the end-to-end metrics of a full untraced pass
	traced   bool    // make the traced pass and run the layer probes
	// setups is how often set-up is repeated; setup_s is the median.
	setups int
	// probeBudget and minSamples end a probe's sampling loop.
	probeBudget time.Duration
	minSamples  int
}

// cellResult is one cell's share of the untraced pass.
type cellResult struct {
	Label    string  `json:"label"`
	Nodes    int     `json:"nodes"`
	Epochs   int     `json:"epochs"`
	Runs     int     `json:"runs"`
	MedianMS float64 `json:"median_ms"`
	SeqMS    float64 `json:"seq_ms"`
}

// record is one workload's result from one invocation.
type record struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Rounds    int    `json:"rounds"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Correct is false when a run's output was wrong: a checksum other
	// than the sequential baseline's or, on the simulator, a virtual time
	// or message count other than the warm round's.
	Correct  bool         `json:"correct"`
	Failures []string     `json:"failures,omitempty"`
	EndToEnd []value      `json:"end_to_end,omitempty"`
	PerLayer []value      `json:"per_layer,omitempty"`
	Cells    []cellResult `json:"cells,omitempty"`
}

func (r *record) count(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.wrong > 0 {
		r.Correct = false
	}
	r.Failures = append(r.Failures, p.failures...)
}

// runWorkload sets the workload up, measures it untraced, then — when
// asked — traced, runs its layer probes, and prints as it goes.
func runWorkload(ctx context.Context, w *workload, cfg runConfig, out io.Writer) (*record, error) {
	fmt.Fprintf(out, "\nworkload %s over %s: %d cells\n  why: %s\n", w.name, w.transport, len(w.cells), w.why)
	var cells []*cellState
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		cs, err := setUp(ctx, w, cfg.seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		cells = cs
	}
	r := &record{Workload: w.name, Seed: cfg.seed, Correct: true}
	full := budget{rounds: w.rounds, seconds: cfg.seconds}
	b := full
	if !cfg.untraced {
		// A traced-only invocation still needs an untraced reference for
		// the tracing overhead and the runtime.* numbers; a third of the
		// budget each for the reference, the traced pass and the probes.
		b = full.third()
	}
	ref := measure(ctx, w, cells, b, nil)
	r.count(ref)
	r.Rounds = ref.rounds
	if cfg.untraced {
		r.EndToEnd = endToEndMetrics(ref, median(setupS))
		for i, cs := range cells {
			c := cellResult{Label: cs.label, Nodes: cs.nodes, Epochs: cs.epochs, Runs: len(ref.times[i]), SeqMS: cs.seqMS}
			if c.Runs > 0 {
				c.MedianMS = median(ref.times[i])
			}
			r.Cells = append(r.Cells, c)
		}
		printPass(out, r, ref)
	}
	if cfg.traced {
		if err := tracedPass(ctx, w, cells, cfg, full.third(), ref, r, out); err != nil {
			return nil, err
		}
	}
	if r.Failed > 0 {
		fmt.Fprintf(out, "  FAILED RUNS: %d of %d\n", r.Failed, r.Attempted)
		for _, f := range r.Failures {
			fmt.Fprintf(out, "    %s\n", f)
		}
	}
	return r, ctx.Err()
}

// endToEndMetrics computes the five end-to-end metrics of an untraced pass.
func endToEndMetrics(p *pass, setupS float64) []value {
	var s valueSet
	s.set("setup_s", setupS)
	s.setNote("epochs_per_s", p.epochsPerSecond(), fmt.Sprintf("%d epochs in %.2f s", p.epochs, p.wall.Seconds()))
	meds := p.cellMedians()
	s.setNote("run_ms_geomean", geomean(meds), fmt.Sprintf("%d cells", len(meds)))
	ratios := p.tailRatios()
	note := fmt.Sprintf("n=%d, %d beyond", len(ratios), beyond(len(ratios), 0.90))
	if len(ratios) > 0 && highestPercentile(len(ratios)) < 0.90 {
		note += " (fewer than ten: read as indicative)"
	}
	s.setNote("tail_ratio_p90", percentile(sorted(ratios), 0.90), note)
	s.set("alloc_kb_per_epoch", float64(p.allocBytes)/1024/float64(max(p.epochs, 1)))
	return s.vals
}

// tracedPass makes the traced pass — Timeline, a counting trace sink, a
// metrics registry and, over a real transport, the span-recording wrapper
// backend on every run — then runs the workload's layer probes.
func tracedPass(ctx context.Context, w *workload, cells []*cellState, cfg runConfig, b budget, ref *pass, r *record, out io.Writer) error {
	registerBenchBackends()
	tr := &tracer{sink: &countingSink{}, reg: metrics.New(), acc: &traceAcc{}}
	traced := measure(ctx, w, cells, b, tr)
	r.count(traced)
	var layers valueSet
	boundaryMetrics(w, ref, traced, tr, &layers)
	fmt.Fprintf(out, "  traced pass: %d rounds, %d runs, %d spans\n", traced.rounds, traced.attempted, rec.count())
	env := &probeEnv{
		ctx: ctx, w: w, cells: cells, ref: ref,
		budget: cfg.probeBudget, minSamples: cfg.minSamples,
		corpus: rec.frames(), out: &layers,
	}
	for _, pr := range w.probes {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.Attempted++
		if err := pr.run(env); err != nil {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("probe %s: %v", pr.name, err))
		}
	}
	r.PerLayer = layers.vals
	printValues(out, r.PerLayer)
	return nil
}

func printPass(out io.Writer, r *record, p *pass) {
	fmt.Fprintf(out, "  untraced pass: %d rounds, runs attempted=%d failed=%d\n", p.rounds, p.attempted, p.failed)
	for _, c := range r.Cells {
		fmt.Fprintf(out, "    %-34s %3d nodes %4d epochs  median %9.3f ms over %d runs\n",
			c.Label, c.Nodes, c.Epochs, c.MedianMS, c.Runs)
	}
	printValues(out, r.EndToEnd)
}

func printValues(out io.Writer, vals []value) {
	for _, v := range vals {
		note := ""
		if v.Note != "" {
			note = "  (" + v.Note + ")"
		}
		fmt.Fprintf(out, "  %-32s %14.4f %-12s%s\n", v.Name, v.Value, v.Unit, note)
	}
}

// driverMetric and driverResult are the line the benchmark driver reads.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverLine renders a record for the driver: every end-to-end metric of
// an untraced invocation, or every declared per-layer metric of a traced
// one. A per-layer metric that is not defined on the workload — a socket
// round trip on a simulator workload — reads 0 there.
func driverLine(r *record, traced bool) driverResult {
	res := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]driverMetric{}}
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = driverMetric{Unit: d.Unit}
	}
	for _, v := range vals {
		res.Metrics[v.Name] = driverMetric{Value: v.Value, Unit: v.Unit}
	}
	return res
}

// resultFile is a set of runs: every invocation with -out appends its
// records, so ten invocations make the ten-run set -compare wants.
type resultFile struct {
	Runs []resultRun `json:"runs"`
}

type resultRun struct {
	Header  header   `json:"header"`
	Records []record `json:"records"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResults(path string, hdr header, records []record) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, resultRun{Header: hdr, Records: records})
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
