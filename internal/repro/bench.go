package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"godsm/internal/cost"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/stats"
	"godsm/internal/sweep"
	"godsm/internal/transport"
	"godsm/internal/vm"
	"godsm/internal/wire"
)

// The bench export: run the Table 1 and Figure 2/3/4 sweeps with per-run
// wall-clock timing, add the diff-codec microbenchmarks, and write the
// result as BENCH_sweep.json — the perf trajectory every future change is
// compared against ("diff two bench files" in EXPERIMENTS.md).

// benchSchemaVersion identifies the BENCH_sweep.json layout. Version 2
// added frame_bytes and stale_refetches to each run entry; version 3
// added the adaptive-protocol runs plus probe_hits and probe_drops;
// version 4 added the weak-scaling runs and the workers field marking
// their parallel-kernel twins; version 5 added the kv datastore skew
// sweep (zipf s × write fraction × protocol, plus the static-home
// column and a sequential baseline per grid point); version 6 dropped the
// workers field and the scaling/jacobi/*/w4 parallel-kernel rows with
// the sharded kernel itself.
const benchSchemaVersion = 6

// Pre-diet allocation baselines, recorded on the tree as of commit
// 308965d (before the two-pass MakeDiff and AppendEncode landed): MakeDiff
// on an 8 KiB page with 16 modified words cost 21 allocs/op and encoding
// its diff cost 1 alloc/op. The export embeds them so a bench file shows
// the diet's effect without digging through git history.
const (
	baselineMakeDiffAllocs = 21
	baselineEncodeAllocs   = 1
)

// benchExperiments are the sweeps the bench export times.
var benchExperiments = []string{"table1", "fig2", "fig3", "fig4", "adaptive", "scaling", "datastore"}

// BenchRun is one timed simulation of the bench sweep.
type BenchRun struct {
	RunID     string  `json:"run_id"`
	App       string  `json:"app"`
	Protocol  string  `json:"protocol"`
	Procs     int     `json:"procs"`
	SimTimeUS float64 `json:"sim_time_us"`
	WallMS    float64 `json:"wall_ms"`
	// FrameBytes is the run's encoded wire traffic (whole run); zero
	// under the virtual wire, whose traffic is modeled rather than framed.
	FrameBytes int64 `json:"frame_bytes"`
	// StaleRefetches counts overdrive mispredictions the stale-entry
	// recovery path repaired (measured window); non-zero only for the
	// bar-s/bar-m runs that took that path.
	StaleRefetches int64 `json:"stale_refetches"`
	// ProbeHits and ProbeDrops meter the adaptive protocol's interest
	// probes (measured window); zero under every static protocol.
	ProbeHits  int64 `json:"probe_hits,omitempty"`
	ProbeDrops int64 `json:"probe_drops,omitempty"`
}

// BenchMicro is one diff-codec microbenchmark sample.
type BenchMicro struct {
	RunID               string  `json:"run_id"`
	NsPerOp             float64 `json:"ns_per_op"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	BytesPerOp          float64 `json:"bytes_per_op"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
}

// BenchFile is the BENCH_sweep.json document.
type BenchFile struct {
	Schema      int          `json:"schema"`
	Config      string       `json:"config"` // "full" or "small"
	Procs       int          `json:"procs"`
	Parallel    int          `json:"parallel"`
	TotalWallMS float64      `json:"total_wall_ms"`
	Runs        []BenchRun   `json:"runs"`
	Micro       []BenchMicro `json:"micro"`
}

// BenchSweep runs the bench experiments on the Runner's Parallel workers,
// timing each simulation, then measures the diff-codec microbenchmarks.
// Call it on a fresh Runner: cache-warm runs would report near-zero wall
// times.
func (r *Runner) BenchSweep() (*BenchFile, error) {
	r.init()
	var jobs []runJob
	seen := make(map[string]bool)
	for _, exp := range benchExperiments {
		for _, j := range r.jobsFor(exp) {
			if seen[j.key] {
				continue
			}
			seen[j.key] = true
			jobs = append(jobs, j)
		}
	}
	config := "full"
	if r.Small {
		config = "small"
	}
	out := &BenchFile{
		Schema:   benchSchemaVersion,
		Config:   config,
		Procs:    r.Procs,
		Parallel: sweep.DefaultParallel(r.Parallel),
	}
	wallMS := make([]float64, len(jobs))
	start := time.Now()
	err := sweep.Each(r.Parallel, len(jobs), func(i int) error {
		t0 := time.Now()
		_, err := r.runCached(jobs[i])
		wallMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		return err
	})
	if err != nil {
		return nil, err
	}
	out.TotalWallMS = float64(time.Since(start).Nanoseconds()) / 1e6
	for i, j := range jobs {
		rep, err := r.runCached(j) // cache hit: recorded above
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, BenchRun{
			RunID:          j.key,
			App:            j.app,
			Protocol:       j.proto,
			Procs:          j.procs,
			SimTimeUS:      float64(rep.Elapsed) / float64(sim.Microsecond),
			WallMS:         wallMS[i],
			FrameBytes:     rep.FrameBytes,
			StaleRefetches: rep.Total.StaleRefetches,
			ProbeHits:      rep.Total.ProbeHits,
			ProbeDrops:     rep.Total.ProbeDrops,
		})
	}
	out.Micro = measureMicro()
	return out, nil
}

// measureMicro samples every microbenchmark family the bench export and
// the allocation guard share. Run after the sweep so no worker is
// allocating concurrently.
func measureMicro() []BenchMicro {
	micro := measureDiffMicro()
	micro = append(micro, measureWireMicro()...)
	return append(micro, measureSimMicro()...)
}

// measureDiffMicro samples the diff-codec hot paths the allocation diet
// targeted.
func measureDiffMicro() []BenchMicro {
	const iters = 2000
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < 8192; i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	var micro []BenchMicro
	var d vm.Diff
	p := stats.MeasureLoop(iters, func() { d = vm.MakeDiff(0, old, cur) })
	micro = append(micro, BenchMicro{
		RunID: "micro/vm/makediff-8k", NsPerOp: p.NsPerOp,
		AllocsPerOp: p.AllocsPerOp, BytesPerOp: p.BytesPerOp,
		BaselineAllocsPerOp: baselineMakeDiffAllocs,
	})
	buf := make([]byte, 0, d.WireSize())
	p = stats.MeasureLoop(iters, func() { buf = d.AppendEncode(buf[:0]) })
	micro = append(micro, BenchMicro{
		// The encode hot path: pre-diet this was Encode's fresh buffer
		// per call (the baseline); AppendEncode reuses the caller's.
		RunID: "micro/vm/encode-append-8k", NsPerOp: p.NsPerOp,
		AllocsPerOp: p.AllocsPerOp, BytesPerOp: p.BytesPerOp,
		BaselineAllocsPerOp: baselineEncodeAllocs,
	})
	enc := d.Encode()
	p = stats.MeasureLoop(iters, func() {
		if _, err := vm.DecodeDiff(enc); err != nil {
			panic(err)
		}
	})
	micro = append(micro, BenchMicro{
		RunID: "micro/vm/decode-8k", NsPerOp: p.NsPerOp,
		AllocsPerOp: p.AllocsPerOp, BytesPerOp: p.BytesPerOp,
	})
	fullOld := make([]byte, vm.MaxPageSize)
	fullCur := make([]byte, vm.MaxPageSize)
	for i := range fullCur {
		fullCur[i] = 0xAB
	}
	p = stats.MeasureLoop(iters/4, func() { d = vm.MakeDiff(0, fullOld, fullCur) })
	micro = append(micro, BenchMicro{
		RunID: "micro/vm/makediff-fullpage-64k", NsPerOp: p.NsPerOp,
		AllocsPerOp: p.AllocsPerOp, BytesPerOp: p.BytesPerOp,
	})
	return micro
}

// measureWireMicro samples the per-remote-message hot paths a real
// transport puts on every send and receive: the frame codec's encode and
// decode, and netsim's send over mem. Same frames BenchmarkWireCodec
// guards — a two-diff update flush and a full 8 KiB page reply — plus a
// barrier arrival on the send rows. Encode reuses the caller's buffer and
// must stay allocation-free; a send must stay at the one allocation that
// is the receiver's copy.
func measureWireMicro() []BenchMicro {
	const iters = 2000
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < len(cur); i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	arrive := &wire.BarArrive{From: 3, Site: 1, Seq: 12, Proto: &wire.BarArrivalBar{
		Versions: []wire.PageVersion{{Page: 7, Version: 3}, {Page: 8, Version: 3}},
		Written:  []vm.PageID{7, 8},
	}}
	ah := wire.Header{Kind: wire.KindBarArrive, FromNode: 3, Size: 56, Rid: 9, Orig: 3}
	flush := &wire.UpdateFlush{Epoch: 4, Diffs: []wire.DiffMsg{
		{Notice: wire.WriteNotice{Page: 3, Creator: 1, Epoch: 4}, Diff: vm.MakeDiff(3, old, cur)},
		{Notice: wire.WriteNotice{Page: 7, Creator: 2, Epoch: 4}, Diff: vm.MakeDiff(7, old, cur)},
	}}
	fh := wire.Header{Kind: wire.KindUpdateFlush, FromNode: 2, FromPort: 1, Size: 64, Rid: 9, Orig: 2}
	rep := &wire.PageRep{Page: 5, Data: cur, Version: 3, Absorbed: []int{1, 2}}
	rh := wire.Header{Kind: wire.KindPageRep, FromNode: 1, Reply: true, Size: 8192}

	var micro []BenchMicro
	for _, tc := range []microFrame{
		{"updateflush", fh, flush},
		{"pagerep-8k", rh, rep},
	} {
		enc, err := wire.AppendFrame(nil, &tc.h, tc.data)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 0, len(enc)+64)
		p := stats.MeasureLoop(iters, func() {
			buf, err = wire.AppendFrame(buf[:0], &tc.h, tc.data)
			if err != nil {
				panic(err)
			}
		})
		micro = append(micro, BenchMicro{
			RunID: "micro/wire/encode-" + tc.id, NsPerOp: p.NsPerOp,
			AllocsPerOp: p.AllocsPerOp, BytesPerOp: p.BytesPerOp,
		})
		p = stats.MeasureLoop(iters, func() {
			if _, _, _, err := wire.DecodeFrame(enc); err != nil {
				panic(err)
			}
		})
		micro = append(micro, BenchMicro{
			RunID: "micro/wire/decode-" + tc.id, NsPerOp: p.NsPerOp,
			AllocsPerOp: p.AllocsPerOp, BytesPerOp: p.BytesPerOp,
		})
	}

	return append(micro, measureSendReal(iters, []microFrame{
		{"ctl", ah, arrive},
		{"flush", fh, flush},
		{"page", rh, rep},
	})...)
}

// microFrame is one frame shape the wire micro rows are measured on.
type microFrame struct {
	id   string
	h    wire.Header
	data any
}

// measureSendReal samples netsim's remote send over mem on each frame
// shape. The loop runs as node 0's compute proc on a realtime kernel, the
// way the engine sends: encode into the node's scratch, hand the frame to
// the backend, whose pump drains the queue behind the sender.
func measureSendReal(iters int, frames []microFrame) []BenchMicro {
	var micro []BenchMicro
	k := sim.NewRealtimeKernel()
	nt := netsim.New(k, 2, cost.Default())
	nt.Bind(0, netsim.PortCompute, "sender", func(p *sim.Proc) {
		for _, f := range frames {
			pkt := &netsim.Packet{Kind: f.h.Kind, Size: f.h.Size, Reply: f.h.Reply,
				Rid: f.h.Rid, Orig: f.h.Orig, Data: f.data}
			send := func() { nt.Send(p, 1, netsim.PortService, pkt) }
			send() // grows the scratch to this shape
			pt := stats.MeasureLoop(iters, send)
			micro = append(micro, BenchMicro{
				RunID: "micro/netsim/send-real/" + f.id, NsPerOp: pt.NsPerOp,
				AllocsPerOp: pt.AllocsPerOp, BytesPerOp: pt.BytesPerOp,
			})
		}
	})
	nt.Bind(1, netsim.PortService, "sink", func(*sim.Proc) {})
	mem, err := transport.New(transport.KindMem, 2, netsim.NumPorts)
	if err != nil {
		panic(err)
	}
	defer mem.Close()
	if err := nt.SetTransport(sendOnly{mem}); err != nil {
		panic(err)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return micro
}

// measureSimMicro samples the DES kernel's two per-event paths, metered
// from inside a run the way measureSendReal is. advance: eight procs step
// in lockstep, so each Advance of the metering proc spans one Advance — a
// heap push and pop and a switch out of and back into a proc — of all
// eight; events sit in the heap by value, so it allocates nothing.
// send-recv: a two-proc ping-pong, one Send and one Recv per hop, whose
// one allocation is the Message.
func measureSimMicro() []BenchMicro {
	const iters = 2000
	var micro []BenchMicro
	// meter times iters calls of op on the calling proc; one op spans
	// events kernel events, and the row is recorded per event.
	meter := func(id string, events float64, op func()) {
		op() // heap and mailboxes reach their working size
		pt := stats.MeasureLoop(iters, op)
		micro = append(micro, BenchMicro{
			RunID: id, NsPerOp: pt.NsPerOp / events,
			AllocsPerOp: pt.AllocsPerOp / events, BytesPerOp: pt.BytesPerOp / events,
		})
	}
	run := func(k *sim.Kernel) {
		if err := k.Run(); err != nil {
			panic(err)
		}
	}

	const procs = 8
	k := sim.NewKernel()
	k.Spawn("meter", func(p *sim.Proc) {
		meter("micro/sim/advance", procs, func() { p.Advance(sim.Microsecond) })
	})
	for id := 1; id < procs; id++ {
		k.Spawn("peer", func(p *sim.Proc) {
			for i := 0; i <= iters; i++ {
				p.Advance(sim.Microsecond)
			}
		})
	}
	run(k)

	k = sim.NewKernel()
	k.Spawn("ping", func(p *sim.Proc) {
		meter("micro/sim/send-recv", 2, func() {
			p.Send(1, sim.Microsecond, nil)
			p.Recv()
		})
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i <= iters; i++ {
			p.Recv()
			p.Send(0, sim.Microsecond, nil)
		}
	})
	run(k)
	return micro
}

// sendOnly cuts a backend's receive side off: frames are queued, pumped
// and dropped, so the send rows count the sender's allocations alone.
type sendOnly struct{ transport.Transport }

func (s sendOnly) Start(transport.DeliverFunc) error {
	return s.Transport.Start(func(transport.Addr, []byte) {})
}

// WriteBenchJSON runs BenchSweep and writes the indented JSON document.
func (r *Runner) WriteBenchJSON(w io.Writer) error {
	bf, err := r.BenchSweep()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bf); err != nil {
		return fmt.Errorf("repro: bench export: %w", err)
	}
	return nil
}
