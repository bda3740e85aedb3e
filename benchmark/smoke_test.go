package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations holds BENCHMARK.json to metrics.go and
// workloads.go: same workloads, same metric names, units, directions and
// bounds, and the limits the benchmark driver puts on the file.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if got := strings.Join(m.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		mw := m.Workloads[i]
		if mw.Name != w.name || mw.Why != w.why {
			t.Errorf("workload %d: manifest %q / %q, benchmark %q / %q", i, mw.Name, mw.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the manifest's limits", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest %+v, metrics.go %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) ||
				(d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %q breaks the manifest's limits", kind, d.Name)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q has a bound; per-layer metrics have none", kind, d.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %q: manifest bound %v, metrics.go %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the manifest's limits", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", d)
		}
	}
}

// TestSmokeEveryWorkload runs every workload for one round with the
// traced pass on and small probe budgets, and asserts that no run fails,
// that every workload prints all five end-to-end metrics, and that every
// declared per-layer metric is printed by at least one workload — under
// its declared name and unit.
func TestSmokeEveryWorkload(t *testing.T) {
	cfg := runConfig{seed: 3, untraced: true, traced: true, setups: 1,
		probeBudget: 30 * time.Millisecond, minSamples: 20}
	emitted := map[string]bool{}
	for _, w := range workloads() {
		w.rounds = 1
		r, err := runWorkload(context.Background(), w, cfg, io.Discard)
		rec.reset()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Failed != 0 || !r.Correct || r.Attempted < 2*len(w.cells)+len(w.probes) {
			t.Errorf("%s: attempted=%d failed=%d correct=%v: %v", w.name, r.Attempted, r.Failed, r.Correct, r.Failures)
		}
		if len(r.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(r.EndToEnd), len(endToEnd))
		}
		for i, v := range r.EndToEnd {
			if v.Name != endToEnd[i].Name || v.Unit != endToEnd[i].Unit {
				t.Errorf("%s: end-to-end metric %d is %s [%s], want %s [%s]",
					w.name, i, v.Name, v.Unit, endToEnd[i].Name, endToEnd[i].Unit)
			}
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", w.name, v.Name, v.Value)
			}
		}
		local := map[string]bool{}
		for _, v := range r.PerLayer {
			def, ok := metricByName(v.Name)
			if !ok || def.Unit != v.Unit || !nameRE.MatchString(v.Name) {
				t.Errorf("%s: per-layer metric %q [%s] is not declared so", w.name, v.Name, v.Unit)
			}
			if local[v.Name] {
				t.Errorf("%s: %s printed twice", w.name, v.Name)
			}
			local[v.Name], emitted[v.Name] = true, true
			if v.Name == "core.barrier_msgs" && v.Value != primNodes-1 {
				t.Errorf("%s: core.barrier_msgs = %v, want %d", w.name, v.Value, primNodes-1)
			}
		}
	}
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload printed %s", d.Name)
		}
	}
}

// TestDriverContract runs the fastest workload the way the driver does
// and checks the last line of standard output in both modes.
func TestDriverContract(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "rt-mem", "--seed", "5", "--seconds", "1", "--trace", c.trace}, &out, &errOut)
		rec.reset()
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var top map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", c.trace, err)
		}
		if len(top) != 4 {
			t.Errorf("trace %s: %d top-level keys, want correct, attempted, failed, metrics", c.trace, len(top))
		}
		var res driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: %+v", c.trace, res)
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or in %q, want %q", c.trace, d.Name, m.Unit, d.Unit)
			}
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
