package repro

import (
	"strings"
	"testing"
)

// TestScalingSmall runs the weak-scaling sweep at its reduced sizes
// (16/64 nodes, small per-node slabs) and checks its shape: one row per
// app x cluster size, one cell per contending protocol, every cell with
// live traffic, and simulated time growing with the cluster for at least
// the stencils (weak scaling adds communication, never removes it).
func TestScalingSmall(t *testing.T) {
	rows, err := smallRunner.Scaling()
	if err != nil {
		t.Fatal(err)
	}
	procs := smallRunner.scalingProcs()
	if want := len(scalingApps) * len(procs); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	byApp := map[string][]ScalingRow{}
	for _, row := range rows {
		if len(row.Cells) != len(scalingProtocols) {
			t.Fatalf("%s at %d: %d cells, want %d",
				row.App, row.Procs, len(row.Cells), len(scalingProtocols))
		}
		for _, c := range row.Cells {
			if c.SimTimeUS <= 0 || c.Messages <= 0 {
				t.Errorf("%s at %d under %s: degenerate cell %+v",
					row.App, row.Procs, c.Protocol, c)
			}
		}
		byApp[row.App] = append(byApp[row.App], row)
	}
	for app, rs := range byApp {
		for i := 1; i < len(rs); i++ {
			if rs[i].Procs <= rs[i-1].Procs {
				t.Errorf("%s: rows out of cluster-size order", app)
			}
			// More nodes means more messages under every protocol in a
			// weak-scaled run.
			for j := range rs[i].Cells {
				if rs[i].Cells[j].Messages <= rs[i-1].Cells[j].Messages {
					t.Errorf("%s under %s: %d msgs at %d nodes vs %d at %d",
						app, rs[i].Cells[j].Protocol,
						rs[i].Cells[j].Messages, rs[i].Procs,
						rs[i-1].Cells[j].Messages, rs[i-1].Procs)
				}
			}
		}
	}

	out, err := smallRunner.RenderScaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"jacobi", "sor", "barnes", "bar-u", "adaptive"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
