package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"godsm/internal/trace"
	"godsm/internal/transport"
)

// Tracing from outside the program: the benchmark records a span around
// each call it makes into a layer — one per run (the root), one per
// barrier epoch of that run (from the run's Timeline) and, over a real
// transport, one per Transport.Send through a wrapper backend registered
// beside the real ones. All spans of a run share its identifier and name
// the span that caused them. Spans stay in memory while a workload is
// measured and are written out once it is done.

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`   // "run", "core.epoch", "transport.send"
	Run    int64  `json:"run"`    // shared by every span of one run
	ID     int64  `json:"id"`     // this span
	Parent int64  `json:"parent"` // 0 for a run span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cell   string `json:"cell,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	From   int    `json:"from,omitempty"`
	To     int    `json:"to,omitempty"`
}

// recorder collects spans and, for one round, the frames that crossed the
// transport. Runs are sequential (one closed-loop client), so the current
// run changes only while no Send is in flight; Sends of one run are
// concurrent and append under the mutex.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	run     int64 // current run span; 0 when no traced run is active
	runIdx  int   // its index in spans
	capture bool  // keep this run's frames as replay corpus
	corpus  [][]byte
}

// rec is the process-wide recorder. The wrapper backends reach it from a
// transport factory, which core calls with no per-run argument — the one
// reason it is a package variable.
var rec = &recorder{t0: time.Now()}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// beginRun opens a run's root span and makes it current.
func (r *recorder) beginRun(cell string, capture bool) int64 {
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.run, r.runIdx = id, len(r.spans)
	r.capture = capture
	r.spans = append(r.spans, span{Name: "run", Run: id, ID: id, Start: r.now(), Cell: cell})
	r.mu.Unlock()
	return id
}

// endRun closes the run's root span and adds one child span per barrier
// epoch; epoch bounds are offsets from the run's start.
func (r *recorder) endRun(id int64, epochs [][2]int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run = 0
	r.capture = false
	r.spans[r.runIdx].End = end
	start := r.spans[r.runIdx].Start
	for _, e := range epochs {
		r.spans = append(r.spans, span{
			Name: "core.epoch", Run: id, ID: r.nextID.Add(1), Parent: id,
			Start: start + e[0], End: start + e[1],
		})
	}
}

// send records one Transport.Send of the current run.
func (r *recorder) send(start, end int64, from, to transport.Addr, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.run == 0 {
		return
	}
	r.spans = append(r.spans, span{
		Name: "transport.send", Run: r.run, ID: r.nextID.Add(1), Parent: r.run,
		Start: start, End: end, Bytes: len(frame), From: from.Node, To: to.Node,
	})
	if r.capture {
		r.corpus = append(r.corpus, append([]byte(nil), frame...))
	}
}

// sendMicros returns the duration of every recorded Send, in µs.
func (r *recorder) sendMicros() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var us []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == "transport.send" {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return us
}

// count is the number of spans held; frames the captured replay corpus.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) frames() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.corpus
}

// reset drops everything recorded so far (between workloads).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.corpus = nil, nil
	r.mu.Unlock()
}

// writeJSONL appends the spans to path, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchPrefix names the wrapper backends: "bench-mem" wraps "mem".
const benchPrefix = "bench-"

// spanTransport times every Send of the backend it wraps.
type spanTransport struct {
	transport.Transport
}

func (t spanTransport) Send(from, to transport.Addr, frame []byte) error {
	start := rec.now()
	err := t.Transport.Send(from, to, frame)
	rec.send(start, rec.now(), from, to, frame)
	return err
}

// registerBenchBackends adds bench-mem, bench-udp and bench-tcp to the
// transport registry, once. core selects a backend by registry name, so
// a traced run asks for the wrapper the same way it asks for the real one.
var registerBenchBackends = sync.OnceFunc(func() {
	for _, kind := range []string{transport.KindMem, transport.KindUDP, transport.KindTCP} {
		transport.Register(transport.Entry{
			Name: benchPrefix + kind,
			New: func(nodes, ports int) (transport.Transport, error) {
				inner, err := transport.New(kind, nodes, ports)
				if err != nil {
					return nil, fmt.Errorf("%s%s: %w", benchPrefix, kind, err)
				}
				return spanTransport{inner}, nil
			},
		})
	}
})

// countingSink counts protocol trace events; attaching it turns the
// engine's event emission on, which is part of what a traced run costs.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Emit(trace.Event) { s.n.Add(1) }
