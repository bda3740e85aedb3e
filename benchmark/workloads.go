package main

import (
	"fmt"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/kvload"
	"godsm/internal/transport"
)

// A cell is one configuration a workload runs: app × size × protocol ×
// nodes, over the workload's transport.
type cell struct {
	label string // "jacobi/bar-u", unique within the workload
	// build makes the application; the seed reaches only the kv cells
	// (KVConfig.Seed) — the paper's eight apps have fixed built-in inputs.
	build  func(seed uint64) (*apps.App, error)
	proto  core.ProtocolKind
	nodes  int
	fanout int // core.Config.BarrierFanout; 0 keeps the flat release
}

// A workload is a fixed ordered list of cells run round-robin by one
// closed-loop client: the next run starts when the previous one returns,
// and the only concurrency is the program's own.
type workload struct {
	name string
	why  string
	// transport is a transport registry name; "sim" is the sequential
	// discrete-event kernel on its virtual clock.
	transport string
	// rounds is how often the cell list is run when no -seconds budget is
	// given; the traced pass runs a third of it.
	rounds int
	cells  []cell
	probes []probe
}

func (w *workload) sim() bool { return w.transport == transport.KindSim }

// paper returns one of the paper's eight applications, full size or the
// reduced test size.
func paper(name string, small bool) func(uint64) (*apps.App, error) {
	return func(uint64) (*apps.App, error) {
		list := apps.All()
		if small {
			list = apps.Small()
		}
		for _, a := range list {
			if a.Name == name {
				return a, nil
			}
		}
		return nil, fmt.Errorf("no application %q", name)
	}
}

// kv returns the datastore application over base with the key
// distribution and put fraction replaced.
func kv(base apps.KVConfig, dist kvload.Dist, write float64) func(uint64) (*apps.App, error) {
	return func(seed uint64) (*apps.App, error) {
		cfg := base
		cfg.Dist = dist
		cfg.Mix.Write = write
		cfg.Seed = seed
		return apps.KV(cfg)
	}
}

var (
	zipf099 = kvload.Dist{Kind: kvload.DistZipf, S: 0.99}
	zipf12  = kvload.Dist{Kind: kvload.DistZipf, S: 1.2}
	uniform = kvload.Dist{Kind: kvload.DistUniform}
)

// kvDense is KVDefault's geometry at a quarter of its op budget: 64
// shards of many pages each, so op generation and dense reads dominate.
func kvDense() apps.KVConfig {
	cfg := apps.KVDefault()
	cfg.Ops = 250000
	return cfg
}

// kvSparse is the `repro datastore` regime: about a page per shard and
// some forty ops per stream per epoch, so protocol traffic is the cost.
func kvSparse() apps.KVConfig {
	cfg := apps.KVDefault()
	cfg.Shards = 1024
	cfg.Ops = 4480
	return cfg
}

// rtCells are the seven small cells every real-transport workload runs on
// four nodes: the three workloads differ in the backend alone, so their
// ratios are the backend's price.
func rtCells() []cell {
	const n = 4
	return []cell{
		{label: "jacobi/bar-u", build: paper("jacobi", true), proto: core.ProtoBarU, nodes: n},
		{label: "sor/lmw-i", build: paper("sor", true), proto: core.ProtoLmwI, nodes: n},
		{label: "fft/bar-i", build: paper("fft", true), proto: core.ProtoBarI, nodes: n},
		{label: "swm/lmw-u", build: paper("swm", true), proto: core.ProtoLmwU, nodes: n},
		{label: "tomcat/bar-m", build: paper("tomcat", true), proto: core.ProtoBarM, nodes: n},
		{label: "shallow/adaptive", build: paper("shallow", true), proto: core.ProtoBarA, nodes: n},
		{label: "kv/bar-u", build: kv(apps.KVSmall(), zipf099, 0.20), proto: core.ProtoBarU, nodes: n},
	}
}

// workloads returns the six workloads in the order they run. Simulator
// workloads keep the paper's eight nodes (the sequential kernel runs one
// goroutine at a time); real-transport workloads use four, which already
// puts eight proc goroutines plus the pumps on a two-core machine.
func workloads() []*workload {
	weakJacobi := func(uint64) (*apps.App, error) { return apps.Weak("jacobi", 64, false) }
	corePrims := []probe{probeBarrier, probeLock, probeFlag, probePageFetch, probeDiffFetch}
	transportProbes := []probe{probeRTTSmall, probeRTTPage, probeStream, probeOpenClose}
	rt := func(name, kind, why string, rounds int, extra ...probe) *workload {
		return &workload{
			name: name, why: why, transport: kind, rounds: rounds, cells: rtCells(),
			probes: append(append(extra, transportProbes...), corePrims...),
		}
	}
	return []*workload{
		{
			name:      "sim-stencil",
			why:       "full-size stencils on the simulator: host time is app arithmetic through core's checked accessors, few messages",
			transport: transport.KindSim,
			rounds:    15,
			cells: []cell{
				{label: "jacobi/bar-u", build: paper("jacobi", false), proto: core.ProtoBarU, nodes: 8},
				{label: "sor/bar-m", build: paper("sor", false), proto: core.ProtoBarM, nodes: 8},
				{label: "tomcat/bar-u", build: paper("tomcat", false), proto: core.ProtoBarU, nodes: 8},
				{label: "expl/lmw-u", build: paper("expl", false), proto: core.ProtoLmwU, nodes: 8},
				{label: "shallow/bar-s", build: paper("shallow", false), proto: core.ProtoBarS, nodes: 8},
			},
			probes: []probe{probeAccessors, probeWriteFault, probeSeqBaseline},
		},
		{
			name:      "sim-traffic",
			why:       "message-heavy simulator runs in all seven protocol modes plus a 64-node cell: kernel handoffs, engine handlers and diffing, little arithmetic",
			transport: transport.KindSim,
			rounds:    20,
			cells: []cell{
				{label: "fft-full/lmw-i", build: paper("fft", false), proto: core.ProtoLmwI, nodes: 8},
				{label: "swm/lmw-i", build: paper("swm", true), proto: core.ProtoLmwI, nodes: 8},
				{label: "shallow/lmw-u", build: paper("shallow", true), proto: core.ProtoLmwU, nodes: 8},
				{label: "barnes/bar-i", build: paper("barnes", true), proto: core.ProtoBarI, nodes: 8},
				{label: "tomcat/adaptive", build: paper("tomcat", true), proto: core.ProtoBarA, nodes: 8},
				{label: "fft/bar-u", build: paper("fft", true), proto: core.ProtoBarU, nodes: 8},
				{label: "jacobi/bar-m", build: paper("jacobi", true), proto: core.ProtoBarM, nodes: 8},
				{label: "sor/bar-s", build: paper("sor", true), proto: core.ProtoBarS, nodes: 8},
				{label: "weak-jacobi-64/bar-u", build: weakJacobi, proto: core.ProtoBarU, nodes: 64, fanout: 8},
			},
			probes: append([]probe{probeSimKernel, probeVM, probeOracle}, corePrims...),
		},
		{
			name:      "sim-kv",
			why:       "the datastore on the simulator: scattered int64 writes over many pages, 5-95% puts; kvload dominates the dense cells, vm twins and diffs the sparse ones",
			transport: transport.KindSim,
			rounds:    12,
			cells: []cell{
				{label: "dense:zipf=0.99,w=0.20/bar-u", build: kv(kvDense(), zipf099, 0.20), proto: core.ProtoBarU, nodes: 8},
				{label: "dense:uniform,w=0.05/lmw-u", build: kv(kvDense(), uniform, 0.05), proto: core.ProtoLmwU, nodes: 8},
				{label: "sparse:zipf=0.99,w=0.95/bar-i", build: kv(kvSparse(), zipf099, 0.95), proto: core.ProtoBarI, nodes: 8},
				{label: "sparse:zipf=0.99,w=0.95/bar-u", build: kv(kvSparse(), zipf099, 0.95), proto: core.ProtoBarU, nodes: 8},
				{label: "sparse:zipf=1.2,w=0.50/adaptive", build: kv(kvSparse(), zipf12, 0.50), proto: core.ProtoBarA, nodes: 8},
				{label: "sparse:uniform,w=0.05/lmw-i", build: kv(kvSparse(), uniform, 0.05), proto: core.ProtoLmwI, nodes: 8},
			},
			probes: []probe{probeVM, probeKVLoad},
		},
		rt("rt-mem", transport.KindMem,
			"small runs over in-process channels: wire codec, realtime kernel and engine with no socket; the reference the socket workloads are divided by",
			150, probeRTKernel, probeWire),
		rt("rt-udp", transport.KindUDP,
			"the same seven cells over loopback datagrams: sockets, batching timers and the reliability layer dominate",
			20),
		rt("rt-tcp", transport.KindTCP,
			"the same seven cells over loopback streams: separate backend code with the same flush-timer shape, kept apart from udp",
			15),
	}
}

// workloadByName finds one workload.
func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
