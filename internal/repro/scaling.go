package repro

import (
	"fmt"
	"strings"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/sim"
)

// The scaling experiment: the paper's protocol comparison pushed past its
// 8-node testbed. jacobi, sor and barnes run weak-scaled (apps.Weak holds
// per-node work constant) at 16, 64 and 256 nodes under the five
// contending protocols, with barrier releases on the 8-ary relay tree —
// flat fan-out's Procs serial sends would otherwise dominate every cell
// equally and bury the protocol differences the sweep is after. The
// question it answers is whether the home-vs-homeless and
// update-vs-invalidate gaps widen or invert as the cluster grows.

// scalingApps are the weak-scalable kernels the sweep covers.
var scalingApps = []string{"jacobi", "sor", "barnes"}

// scalingProtocols are the contenders: both home-based/homeless pairs
// plus the adaptive per-page hybrid.
var scalingProtocols = []core.ProtocolKind{
	core.ProtoBarI, core.ProtoBarU, core.ProtoLmwI, core.ProtoLmwU, core.ProtoBarA,
}

// scalingFanout is the barrier release relay tree's arity
// (core.Config.BarrierFanout), applied to every scaling run.
const scalingFanout = 8

// scalingProcs returns the swept cluster sizes. Small keeps tests and CI
// smoke runs off the 256-node cells.
func (r *Runner) scalingProcs() []int {
	if r.Small {
		return []int{16, 64}
	}
	return []int{16, 64, 256}
}

// ScalingCell is one protocol's measured-window result at one cell size.
type ScalingCell struct {
	Protocol  string
	SimTimeUS float64
	Messages  int64
	DataKB    int64
	Diffs     int64
}

// ScalingRow is one app at one cluster size across the protocols.
type ScalingRow struct {
	App   string
	Procs int
	Cells []ScalingCell
}

// scalingJob runs the weak-scaled instance of app at procs under proto.
func (r *Runner) scalingJob(name string, procs int, proto core.ProtocolKind) runJob {
	return runJob{
		key:   fmt.Sprintf("scaling/%s/%v/%d", name, proto, procs),
		app:   name,
		proto: proto.String(),
		procs: procs,
		run: func() (*core.Report, error) {
			a, err := apps.Weak(name, procs, r.Small)
			if err != nil {
				return nil, err
			}
			rep, err := a.RunWith(procs, proto, apps.RunOpts{
				Model:     r.Model,
				Configure: func(c *core.Config) { c.BarrierFanout = scalingFanout },
			})
			if err != nil {
				return nil, fmt.Errorf("repro: scaling %s under %v at %d nodes: %w", name, proto, procs, err)
			}
			return rep, nil
		},
	}
}

// Scaling computes the weak-scaling sweep: every app x cluster size row
// with one cell per protocol.
func (r *Runner) Scaling() ([]ScalingRow, error) {
	r.init()
	var rows []ScalingRow
	for _, name := range scalingApps {
		for _, procs := range r.scalingProcs() {
			row := ScalingRow{App: name, Procs: procs}
			for _, proto := range scalingProtocols {
				rep, err := r.runCached(r.scalingJob(name, procs, proto))
				if err != nil {
					return nil, err
				}
				row.Cells = append(row.Cells, ScalingCell{
					Protocol:  proto.String(),
					SimTimeUS: float64(rep.Elapsed) / float64(sim.Microsecond),
					Messages:  rep.Total.Messages,
					DataKB:    rep.Total.DataBytes / 1024,
					Diffs:     rep.Total.Diffs,
				})
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderScaling renders the sweep: per app, one line per cluster size
// with each protocol's simulated time and message count.
func (r *Runner) RenderScaling() (string, error) {
	rows, err := r.Scaling()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Weak scaling at %v nodes (sim ms | messages; barrier fanout %d)\n",
		r.scalingProcs(), scalingFanout)
	app := ""
	for _, row := range rows {
		if row.App != app {
			app = row.App
			fmt.Fprintf(&b, "%s\n%-8s", app, "procs")
			for _, c := range row.Cells {
				fmt.Fprintf(&b, " %20s", c.Protocol)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%-8d", row.Procs)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %11.1f|%8d", c.SimTimeUS/1e3, c.Messages)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}
