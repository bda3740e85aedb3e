// Package sweep fans independent simulation runs out across worker
// goroutines with deterministic, ordered result collection.
//
// Every run of a sim.Kernel is self-contained — one goroutine, its own
// address spaces, network, and cost model — so the only thing serializing
// a protocol×application sweep is the caller's loop. Each hands every call
// its index, so callers that store results by index and render tables from
// them stay byte-identical to a serial loop whatever the completion order
// was.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallel resolves a worker-count request: n >= 1 is used as
// given, anything else (0, negative) selects GOMAXPROCS.
func DefaultParallel(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(0..n-1) on up to parallel workers. A call that fails stops
// new calls from starting; the error reported is the failing call with the
// lowest index, so the outcome does not depend on scheduling. A panicking
// call is captured as an error rather than tearing down the process.
func Each(parallel, n int, fn func(i int) error) error {
	return EachContext(context.Background(), parallel, n, fn)
}

// EachContext is Each with cancellation: once ctx is cancelled, workers
// stop claiming new indices (calls already running finish — simulation
// kernels are not preempted here; pass ctx into fn for that). If any call
// failed, its error wins as in Each; otherwise a cancelled sweep returns
// ctx's error.
func EachContext(ctx context.Context, parallel, n int, fn func(i int) error) error {
	parallel = min(DefaultParallel(parallel), n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("sweep: job %d panicked: %v", i, r)
				failed.Store(true)
			}
		}()
		if errs[i] = fn(i); errs[i] != nil {
			failed.Store(true)
		}
	}
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
