package sweep

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"godsm/internal/metrics"
)

// Pool is the long-lived counterpart of Each: a fixed set of workers
// draining a bounded queue of independent jobs, for servers (cmd/dsmd)
// that accept work over time instead of fanning out one batch. Admission
// is non-blocking — TrySubmit refuses when the queue is full, so a
// caller can turn saturation into backpressure (HTTP 429) instead of
// unbounded buffering. Jobs run at most workers at a time; a panicking
// job is contained and surfaced to its own completion callback, never
// torn through the pool.
type Pool struct {
	jobs chan poolJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool

	// Resolved instrument handles; all nil without a registry.
	depth      *metrics.Gauge
	busy       *metrics.Gauge
	capacity   *metrics.Gauge
	accepted   *metrics.Counter
	rejected   *metrics.Counter
	jobSeconds *metrics.Histogram
}

type poolJob struct {
	run  func() error
	done func(error)
}

// ErrPoolClosed is reported by TrySubmit after Close.
var ErrPoolClosed = errors.New("sweep: pool closed")

// ErrPoolFull is reported by TrySubmit when the queue is at capacity.
var ErrPoolFull = errors.New("sweep: pool queue full")

// jobBuckets spans simulation-run latencies: 5ms unit tests up to
// multi-minute sweeps.
var jobBuckets = metrics.ExpBuckets(0.005, 4, 9) // 5ms .. ~5.5min

// NewPool starts a pool with the given worker count (DefaultParallel
// rules) and queue capacity (minimum 0: with no queue a job is accepted
// only if a worker can take it promptly). reg may be nil; otherwise the
// pool exposes queue depth, busy-worker, and job-latency instruments.
func NewPool(workers, queueCap int, reg *metrics.Registry) *Pool {
	workers = DefaultParallel(workers)
	if queueCap < 0 {
		queueCap = 0
	}
	p := &Pool{jobs: make(chan poolJob, queueCap)}
	if reg != nil {
		p.depth = reg.Gauge("godsm_sweep_queue_depth",
			"jobs accepted but not yet started")
		p.busy = reg.Gauge("godsm_sweep_workers_busy",
			"workers currently running a job")
		p.capacity = reg.Gauge("godsm_sweep_workers",
			"size of the worker pool")
		p.accepted = reg.Counter("godsm_sweep_jobs_total",
			"jobs admitted to the pool", "outcome", "accepted")
		p.rejected = reg.Counter("godsm_sweep_jobs_total",
			"jobs admitted to the pool", "outcome", "rejected")
		p.jobSeconds = reg.Histogram("godsm_sweep_job_seconds",
			"wall-clock job duration", jobBuckets)
	}
	p.capacity.Set(int64(workers))
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		p.depth.Dec()
		p.busy.Inc()
		start := time.Now()
		err := runGuarded(job.run)
		p.jobSeconds.Observe(time.Since(start).Seconds())
		p.busy.Dec()
		if job.done != nil {
			job.done(err)
		}
	}
}

// runGuarded runs fn, converting a panic into an error.
func runGuarded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: job panicked: %v", r)
		}
	}()
	return fn()
}

// TrySubmit offers a job without blocking. On acceptance, run executes
// on a worker and done (if non-nil) is then called with its outcome —
// from the worker goroutine, so done must not block the pool on slow
// work. ErrPoolFull means the queue is at capacity and every worker is
// busy; ErrPoolClosed means Close has begun.
func (p *Pool) TrySubmit(run func() error, done func(error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.rejected.Inc()
		return ErrPoolClosed
	}
	select {
	case p.jobs <- poolJob{run: run, done: done}:
		p.depth.Inc()
		p.accepted.Inc()
		return nil
	default:
		p.rejected.Inc()
		return ErrPoolFull
	}
}

// Close stops admission and waits for queued and running jobs to finish.
// Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
