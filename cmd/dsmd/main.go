// Command dsmd is the DSM-as-a-service control plane: a long-running
// HTTP server that multiplexes concurrent simulation sessions over a
// bounded worker pool and streams their telemetry live.
//
// API (see EXPERIMENTS.md for the full walkthrough):
//
//	POST   /v1/runs              launch a run (app, proto, procs, faults, ...)
//	GET    /v1/runs              list sessions
//	GET    /v1/runs/{id}         session status, final report included
//	DELETE /v1/runs/{id}         cancel a queued or running session
//	PATCH  /v1/runs/{id}/faults  swap a running session's fault rules live
//	GET    /v1/runs/{id}/events  SSE trace-event stream (?kinds=, ?buffer=)
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness probe
//	/debug/pprof/*               Go profiling endpoints (with -pprof)
//
// A launch body is an apps.Spec, the document cmd/dsmrun builds from its
// flags, and PATCH takes its faults section: a field left out keeps its
// default, a field present is validated as given, and a rejected run is a
// 400 whose message starts with the spec field at fault ("kv.shards").
//
// Every /v1 failure carries the uniform JSON error envelope
// {"error": {"code": "<slug>", "message": "<text>"}} with the same
// status codes as before; the flat {"error": "<text>"} body is
// deprecated and no longer emitted.
//
// Finished sessions are retained until -session-ttl elapses or the
// -max-sessions cap evicts the oldest; an expired id thereafter 404s.
//
// SIGINT/SIGTERM drains: new launches get 503, in-flight sessions run to
// completion up to -drain-timeout, stragglers are cancelled, then the
// server exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: tests drive the whole
// server lifecycle in-process, cancelling ctx where a signal would land.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS)")
	queue := fs.Int("max-queued", 16, "runs accepted but not yet started before POST /v1/runs returns 429")
	traceCap := fs.Int("trace-cap", 4096, "per-session event ring: the replay window a late SSE subscriber gets")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof profiling endpoints")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for in-flight runs before cancelling them")
	sessionTTL := fs.Duration("session-ttl", 0, "expire finished sessions this long after they finish (0 = keep forever)")
	maxSessions := fs.Int("max-sessions", 0, "retained-session cap; past it the oldest finished sessions are evicted (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *queue < 0 {
		fmt.Fprintf(stderr, "dsmd: -max-queued %d: cannot be negative\n", *queue)
		return 2
	}
	if *traceCap < 1 {
		fmt.Fprintf(stderr, "dsmd: -trace-cap %d: the event ring needs at least one slot\n", *traceCap)
		return 2
	}
	if *drainTimeout < 0 {
		fmt.Fprintf(stderr, "dsmd: -drain-timeout %v: cannot be negative\n", *drainTimeout)
		return 2
	}
	if *sessionTTL < 0 {
		fmt.Fprintf(stderr, "dsmd: -session-ttl %v: cannot be negative\n", *sessionTTL)
		return 2
	}
	if *maxSessions < 0 {
		fmt.Fprintf(stderr, "dsmd: -max-sessions %d: cannot be negative\n", *maxSessions)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dsmd: %v\n", err)
		return 1
	}
	srv := newServer(config{
		workers:     *workers,
		queueCap:    *queue,
		traceCap:    *traceCap,
		pprofOn:     *pprofOn,
		sessionTTL:  *sessionTTL,
		maxSessions: *maxSessions,
	})
	hs := &http.Server{Handler: srv.handler()}
	fmt.Fprintf(stdout, "dsmd listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "dsmd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "dsmd: draining (up to %v)...\n", *drainTimeout)
	if cancelled := srv.drain(*drainTimeout); len(cancelled) > 0 {
		fmt.Fprintf(stdout, "dsmd: cancelled %d unfinished runs: %v\n", len(cancelled), cancelled)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		_ = hs.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "dsmd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "dsmd: bye")
	return 0
}
