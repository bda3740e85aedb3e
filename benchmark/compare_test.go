package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// resultSet builds a result file of len(eps) runs of one workload whose
// epochs_per_s takes the given values; every other metric stays put.
func resultSet(workload string, eps []float64, barrierMsgs float64) *resultFile {
	f := &resultFile{}
	for i, v := range eps {
		var e2e, layers valueSet
		e2e.set("setup_s", 0.2)
		e2e.set("epochs_per_s", v)
		e2e.set("run_ms_geomean", 10)
		e2e.set("tail_ratio_p90", 1.1)
		e2e.set("alloc_kb_per_epoch", 500)
		layers.setExact("core.barrier_msgs", barrierMsgs)
		layers.set("core.barrier_us", 14+float64(i)) // not exact: free to differ
		f.Runs = append(f.Runs, resultRun{
			Header:  header{Seed: 7},
			Records: []record{{Workload: workload, Seed: 7, Correct: true, EndToEnd: e2e.vals, PerLayer: layers.vals}},
		})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name      string
		base, cur []float64
		code      int
		want      string
	}{
		{"same code", steady, steady, 0, "0 worse, 0 unresolved"},
		{"15% fewer epochs per second", steady, slower, 1, "1 worse, 0 unresolved"},
		{"a gain", slower, steady, 0, "0 worse, 0 unresolved"},
		{"spread wider than the bound", steady, noisy, 0, "0 worse, 1 unresolved"},
	} {
		var out bytes.Buffer
		code := compareResults(resultSet("rt-mem", c.base, 3), resultSet("rt-mem", c.cur, 3), "a", "b", &out)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
		if !strings.Contains(out.String(), "1 exact counts shared, 0 differ") {
			t.Errorf("%s: exact counts not reported identical:\n%s", c.name, out.String())
		}
	}
	// One row per workload × end-to-end metric, with the ratio's base.
	var out bytes.Buffer
	compareResults(resultSet("rt-mem", steady, 3), resultSet("rt-mem", slower, 3), "a", "b", &out)
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "rt-mem ") {
			rows++
		}
	}
	if rows != len(endToEnd) {
		t.Errorf("%d rows for one workload, want %d:\n%s", rows, len(endToEnd), out.String())
	}
	if !strings.Contains(out.String(), "0.850 of 100") {
		t.Errorf("ratio is not given with its base:\n%s", out.String())
	}
}

func TestCompareExactCounts(t *testing.T) {
	steady := []float64{100, 101, 99}
	var out bytes.Buffer
	code := compareResults(resultSet("rt-mem", steady, 3), resultSet("rt-mem", steady, 4), "a", "b", &out)
	if code != 0 {
		t.Errorf("a changed count is reported, not failed: exit %d", code)
	}
	if !strings.Contains(out.String(), "exact count differs: rt-mem seed 7 core.barrier_msgs") ||
		!strings.Contains(out.String(), "1 exact counts shared, 1 differ") {
		t.Errorf("changed count not reported:\n%s", out.String())
	}
}

func TestResultFileAccumulates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	for i := 0; i < 3; i++ {
		if err := appendResults(path, header{Seed: uint64(i)}, []record{{Workload: "rt-mem", Seed: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 3 || f.Runs[2].Header.Seed != 2 {
		t.Errorf("set holds %d runs, want 3 in order", len(f.Runs))
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(path, filepath.Join(t.TempDir(), "missing.json"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
