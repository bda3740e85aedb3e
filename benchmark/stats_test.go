package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15},
	} {
		if got := percentile(asc, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
}

// TestTenSamplesBeyond pins the rule for which tail a sample count
// supports: the highest percentile with at least ten samples above it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 0.90, 10}, {101, 0.90, 10}, {75, 0.90, 8}, {105, 0.90, 11},
		{1050, 0.90, 105}, {1000, 0.99, 10}, {2000, 0.99, 20}, {21, 0.50, 10},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {20, 0.50}, {91, 0.50}, {92, 0.90}, {181, 0.90},
		{182, 0.95}, {1001, 0.99}, {10100, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule and the count agree: the chosen percentile has its ten,
	// the next candidate up does not.
	for n := 21; n < 3000; n += 7 {
		p := highestPercentile(n)
		if beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%v has only %d beyond", n, p*100, beyond(n, p))
		}
		for _, q := range tailCandidates {
			if q > p && beyond(n, q) >= 10 {
				t.Fatalf("n=%d: chose p%v though p%v has %d beyond", n, p*100, q*100, beyond(n, q))
			}
		}
	}
}

func TestGeomeanWeighsCellsEqually(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	// Halving the short cell moves the geomean as much as halving the
	// long one; an arithmetic mean would barely notice the former.
	short := geomean([]float64{2, 400}) / geomean([]float64{4, 400})
	long := geomean([]float64{4, 200}) / geomean([]float64{4, 400})
	if !near(short, long) {
		t.Errorf("short-cell gain %v, long-cell gain %v: want equal", short, long)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

// TestQuartileSpreadMatchesPython holds quartileSpread to values computed
// with Python's statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		// quantiles -> [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		// quantiles -> [96.75, 100.5, 103.25]
		{[]float64{103, 97, 100, 101, 95, 104, 99, 102, 96, 110}, (103.25 - 96.75) / 100.5},
		// quantiles -> [0.75, 1.5, 2.25] on the clamped two-point case
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},
		// quantiles -> [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
	} {
		got, ok := quartileSpread(c.xs)
		if !ok || !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, %v; want %v", c.xs, got, ok, c.want)
		}
	}
	if _, ok := quartileSpread([]float64{7}); ok {
		t.Error("one sample has no spread")
	}
}

func TestBoundAndVerdict(t *testing.T) {
	if w := worsening(100, 111, "lower"); !near(w, 0.11) {
		t.Errorf("lower-is-better 100 -> 111: worsening %v, want 0.11", w)
	}
	if w := worsening(100, 89, "higher"); !near(w, 0.11) {
		t.Errorf("higher-is-better 100 -> 89: worsening %v, want 0.11", w)
	}
	if w := worsening(100, 120, "higher"); w >= 0 {
		t.Errorf("higher-is-better 100 -> 120 is a gain, got worsening %v", w)
	}
	for _, c := range []struct {
		name                  string
		base, cur, bspr, cspr float64
		bound, floor          float64
		better, want          string
	}{
		{"inside the bound", 100, 109, 0.01, 0.01, 0.10, 0, "lower", "ok"},
		{"past the bound", 100, 111, 0.01, 0.01, 0.10, 0, "lower", "worse"},
		{"throughput fell", 200, 170, 0.02, 0.02, 0.10, 0, "higher", "worse"},
		{"a gain is never worse", 100, 50, 0.01, 0.01, 0.10, 0, "lower", "ok"},
		{"base too noisy", 100, 150, 0.12, 0.01, 0.10, 0, "lower", "unresolved"},
		{"new too noisy", 100, 100, 0.01, 0.30, 0.10, 0, "lower", "unresolved"},
		{"short set-up under the absolute floor", 0.17, 0.30, 0, 0, 0.25, 0.25, "lower", "ok"},
		{"long set-up past both", 1.0, 1.4, 0, 0, 0.25, 0.25, "lower", "worse"},
	} {
		if got := verdict(c.base, c.cur, c.bspr, c.cspr, c.bound, c.floor, c.better); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBudget(t *testing.T) {
	fixed := budget{rounds: 3}
	if !fixed.more(2, time.Hour) || fixed.more(3, 0) {
		t.Error("a fixed budget counts rounds and ignores time")
	}
	timed := budget{rounds: 3, seconds: 2}
	if !timed.more(0, time.Minute) {
		t.Error("a timed budget always makes its first round")
	}
	if !timed.more(50, time.Second) || timed.more(1, 2*time.Second) {
		t.Error("a timed budget ends with the first round past its seconds")
	}
	if th := (budget{rounds: 20, seconds: 12}).third(); th.rounds != 6 || th.seconds != 4 {
		t.Errorf("third = %+v, want 6 rounds / 4 s", th)
	}
	if th := (budget{rounds: 1}).third(); th.rounds != 1 {
		t.Errorf("a third of one round is still a round, got %d", th.rounds)
	}
}

// TestFailureAccounting: a failed run is attempted, contributes no timing
// sample and no epochs, still costs wall time, and only a wrong answer —
// not an error or a deadline — makes the result incorrect.
func TestFailureAccounting(t *testing.T) {
	cs := &cellState{cell: &cell{label: "c"}}
	p := &pass{times: make([][]float64, 1)}
	p.attempted = 3
	p.wall = 3 * time.Second
	p.epochs = 10
	p.times[0] = []float64{1000}
	p.fail(cs, errors.New("context deadline exceeded"))
	p.fail(cs, errWrongOutput)
	if p.failed != 2 || p.wrong != 1 {
		t.Fatalf("failed=%d wrong=%d, want 2 and 1", p.failed, p.wrong)
	}
	if got := p.epochsPerSecond(); !near(got, 10.0/3) {
		t.Errorf("epochs/s = %v: failed runs must cost time and deliver nothing", got)
	}
	if n := len(p.tailRatios()); n != 1 {
		t.Errorf("%d timing samples, want the one successful run", n)
	}
	for i := 0; i < 10; i++ {
		p.fail(cs, errors.New("again"))
	}
	if len(p.failures) != 5 {
		t.Errorf("kept %d failure reasons, want the first 5", len(p.failures))
	}

	r := &record{Correct: true}
	r.count(&pass{attempted: 4, failed: 1})
	if !r.Correct || r.Attempted != 4 || r.Failed != 1 {
		t.Errorf("after an erroring run: %+v", r)
	}
	r.count(&pass{attempted: 2, failed: 1, wrong: 1})
	if r.Correct || r.Attempted != 6 || r.Failed != 2 {
		t.Errorf("after a wrong answer: %+v", r)
	}
}

// TestDriverLine: the driver's line carries every declared metric of the
// pass it reports and nothing else; one not defined on the workload is 0.
func TestDriverLine(t *testing.T) {
	var e2e, layers valueSet
	e2e.set("epochs_per_s", 97.5)
	layers.set("sim.pingpong_ns", 1228)
	r := &record{Correct: true, Attempted: 9, EndToEnd: e2e.vals, PerLayer: layers.vals}

	line := driverLine(r, false)
	if len(line.Metrics) != len(endToEnd) || line.Metrics["epochs_per_s"].Value != 97.5 ||
		line.Metrics["epochs_per_s"].Unit != "epochs/s" {
		t.Errorf("untraced line: %+v", line)
	}
	line = driverLine(r, true)
	if len(line.Metrics) != len(perLayer) || line.Metrics["sim.pingpong_ns"].Value != 1228 {
		t.Errorf("traced line: %d metrics", len(line.Metrics))
	}
	if m, ok := line.Metrics["transport.rtt_small_us_p50"]; !ok || m.Value != 0 || m.Unit != "us" {
		t.Errorf("undefined metric reads %+v, want 0 us", m)
	}
}
