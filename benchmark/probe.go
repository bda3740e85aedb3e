package main

import (
	"context"
	"time"
)

// A probe times one layer alone, closed loop, by calling its exported
// functions from here. It runs in the traced pass of the workloads that
// list it (workloads.go), next to the end-to-end numbers it should
// explain, and writes its metrics into env.out.
type probe struct {
	name string
	run  func(env *probeEnv) error
}

// probeEnv is what a probe may look at.
type probeEnv struct {
	ctx   context.Context
	w     *workload
	cells []*cellState
	ref   *pass // the untraced pass of this process
	// budget and minSamples end a sampling loop: it stops at minSamples
	// samples or when the budget is spent, whichever comes first.
	budget     time.Duration
	minSamples int
	// corpus is the frames one traced round put on the transport.
	corpus [][]byte
	out    *valueSet
}

// probeDeadline bounds a whole probe, so a wedged socket or a deadlocked
// body fails the probe instead of hanging the benchmark.
const probeDeadline = 20 * time.Second

// sinkF and sinkU keep the compiler from discarding a timed loop's result.
var (
	sinkF float64
	sinkU uint64
)

// sample times fn — one call is batch operations — until the environment's
// sample count or budget is reached and returns ns per operation, one
// value per call.
func (e *probeEnv) sample(batch int, fn func()) []float64 {
	return e.sampleFor(e.budget, batch, fn)
}

// sampleFor is sample under a budget of its own, for a probe that splits
// the environment's between several loops.
func (e *probeEnv) sampleFor(budget time.Duration, batch int, fn func()) []float64 {
	fn() // warm caches, pools and lazy tables
	var ns []float64
	begin := time.Now()
	for len(ns) < e.minSamples && time.Since(begin) < budget {
		start := time.Now()
		fn()
		ns = append(ns, float64(time.Since(start))/float64(batch))
	}
	return ns
}

// mbps converts ns per operation on size bytes into MB/s.
func mbps(size int, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(size) / nsPerOp * 1e3
}
