package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchBaseline loads the checked-in BENCH_sweep.json at the repo root.
func benchBaseline(t *testing.T) *BenchFile {
	t.Helper()
	path := filepath.Join("..", "..", "BENCH_sweep.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading checked-in baseline: %v", err)
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(bf.Micro) == 0 {
		t.Fatalf("%s carries no micro section; regenerate it with `go run ./cmd/repro -small -parallel 0 -bench-out BENCH_sweep.json bench`", path)
	}
	return &bf
}

// TestAllocGuard holds the hot-path allocation counts to the checked-in
// BENCH_sweep.json: re-measure the diff-codec, wire-codec, real-transport
// send and DES-kernel microbenchmarks and fail if any reports more
// allocs/op than the baseline. Counts are near-deterministic but can drift fractionally
// (slice-growth amortization straddling the measured loop), so the guard
// trips only on at least half an extra alloc per op — a real new alloc on
// a hot path shifts the count by a full unit. When an alloc is shed
// intentionally, regenerate the baseline and commit it; that ratchets the
// guard down.
func TestAllocGuard(t *testing.T) {
	base := benchBaseline(t)
	want := make(map[string]float64, len(base.Micro))
	for _, m := range base.Micro {
		want[m.RunID] = m.AllocsPerOp
	}
	for _, m := range measureMicro() {
		baseline, ok := want[m.RunID]
		if !ok {
			// A benchmark the baseline predates: report, don't fail —
			// the next baseline regeneration picks it up.
			t.Logf("%s: not in baseline (%.0f allocs/op now); regenerate BENCH_sweep.json", m.RunID, m.AllocsPerOp)
			continue
		}
		if m.AllocsPerOp > baseline+0.5 {
			t.Errorf("%s: %.0f allocs/op, baseline %.0f — allocation regression", m.RunID, m.AllocsPerOp, baseline)
		}
	}
}
