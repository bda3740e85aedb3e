package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/sweep"
	"godsm/internal/trace"
)

// config sizes a server.
type config struct {
	// workers bounds concurrent simulation runs (DefaultParallel rules).
	workers int
	// queueCap bounds accepted-but-not-started runs; a full queue turns
	// into HTTP 429, not buffering.
	queueCap int
	// traceCap is each session's event-ring size: the replay window a
	// late SSE subscriber receives.
	traceCap int
	// pprofOn mounts net/http/pprof under /debug/pprof.
	pprofOn bool
	// sessionTTL expires finished sessions that many after they finish
	// (0 = keep forever). Queued and running sessions never expire.
	sessionTTL time.Duration
	// maxSessions bounds retained sessions; past it the oldest finished
	// ones are evicted first (0 = unlimited).
	maxSessions int
	// sweepEvery overrides the retention sweep interval (0 = derived
	// from sessionTTL; tests set it directly).
	sweepEvery time.Duration
}

// server multiplexes DSM simulation sessions over a bounded worker pool
// and exposes them over a versioned REST API plus SSE event streams.
type server struct {
	cfg  config
	reg  *metrics.Registry
	pool *sweep.Pool

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // session ids in creation order, for listing
	nextID   int
	draining bool

	activeSessions  *metrics.Gauge
	sseClients      *metrics.Gauge
	sessionsExpired *metrics.Counter

	// sweepStop/sweepDone bracket the retention sweeper's lifetime (nil
	// when retention is off).
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// sessionState is a session's lifecycle phase.
type sessionState string

const (
	stateQueued    sessionState = "queued"
	stateRunning   sessionState = "running"
	stateDone      sessionState = "done"
	stateError     sessionState = "error"
	stateCancelled sessionState = "cancelled"
)

// session is one simulation run owned by the server.
type session struct {
	id     string
	req    apps.Spec // as resolved: procs filled in
	bcast  *trace.Broadcaster
	cancel context.CancelFunc
	done   chan struct{} // closed when the run finishes, after report/err are set

	mu       sync.Mutex
	state    sessionState
	report   *core.Report
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	// net is the run's live network handle (set by core.Config.NetHook
	// once the cluster is assembled); PATCH faults goes through it.
	net *netsim.Net
}

// terminalSince reports whether the session has finished and when.
func (ss *session) terminalSince() (time.Time, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch ss.state {
	case stateDone, stateError, stateCancelled:
		return ss.finished, true
	}
	return time.Time{}, false
}

// sessionDoc is the wire form of a session (GET /v1/runs/{id} and the
// list entries, which omit the report).
type sessionDoc struct {
	ID       string       `json:"id"`
	State    sessionState `json:"state"`
	Request  apps.Spec    `json:"request"`
	Error    string       `json:"error,omitempty"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	// Epochs is len(report.timeline.Epochs) when a timeline was recorded.
	Epochs int `json:"epochs,omitempty"`
	// DroppedEvents counts ring evictions: events an SSE replay no longer
	// covers.
	DroppedEvents int64        `json:"dropped_events,omitempty"`
	Report        *core.Report `json:"report,omitempty"`
}

func (ss *session) doc(withReport bool) sessionDoc {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	d := sessionDoc{
		ID:            ss.id,
		State:         ss.state,
		Request:       ss.req,
		Error:         ss.err,
		Created:       ss.created,
		DroppedEvents: ss.bcast.Dropped(),
	}
	if !ss.started.IsZero() {
		t := ss.started
		d.Started = &t
	}
	if !ss.finished.IsZero() {
		t := ss.finished
		d.Finished = &t
	}
	if ss.report != nil && ss.report.Timeline != nil {
		d.Epochs = len(ss.report.Timeline.Epochs)
	}
	if withReport {
		d.Report = ss.report
	}
	return d
}

func newServer(cfg config) *server {
	if cfg.traceCap <= 0 {
		cfg.traceCap = 4096
	}
	reg := metrics.New()
	s := &server{
		cfg:      cfg,
		reg:      reg,
		pool:     sweep.NewPool(cfg.workers, cfg.queueCap, reg),
		sessions: make(map[string]*session),
		activeSessions: reg.Gauge("godsm_dsmd_sessions_active",
			"sessions queued or running"),
		sseClients: reg.Gauge("godsm_dsmd_sse_clients",
			"open SSE event subscriptions"),
		sessionsExpired: reg.Counter("godsm_dsmd_sessions_expired",
			"finished sessions evicted by the retention sweep"),
	}
	if cfg.sessionTTL > 0 || cfg.maxSessions > 0 {
		every := cfg.sweepEvery
		if every <= 0 {
			// A quarter of the TTL keeps expiry within ~25% of the nominal
			// deadline without busy-sweeping long retention windows.
			every = cfg.sessionTTL / 4
			if every <= 0 || every > time.Minute {
				every = time.Minute
			}
			if every < time.Second {
				every = time.Second
			}
		}
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop(every)
	}
	return s
}

// sweepLoop runs the retention sweep until drain stops it.
func (s *server) sweepLoop(every time.Duration) {
	defer close(s.sweepDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-t.C:
			s.sweepExpired(now)
		}
	}
}

// sweepExpired drops finished sessions older than the TTL and, when the
// retention count cap is exceeded, the oldest finished ones beyond it.
// Queued and running sessions are never evicted — the cap can therefore
// be transiently exceeded by live sessions. An expired id simply leaves
// the table: subsequent lookups 404 like any unknown id. Returns the
// number evicted.
func (s *server) sweepExpired(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	expired := 0
	if s.cfg.sessionTTL > 0 {
		kept := s.order[:0]
		for _, id := range s.order {
			ss := s.sessions[id]
			if fin, terminal := ss.terminalSince(); terminal && now.Sub(fin) > s.cfg.sessionTTL {
				delete(s.sessions, id)
				expired++
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
	if s.cfg.maxSessions > 0 && len(s.order) > s.cfg.maxSessions {
		over := len(s.order) - s.cfg.maxSessions
		kept := s.order[:0]
		for _, id := range s.order {
			ss := s.sessions[id]
			if _, terminal := ss.terminalSince(); terminal && over > 0 {
				delete(s.sessions, id)
				expired++
				over--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
	s.sessionsExpired.Add(int64(expired))
	return expired
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleLaunch)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("PATCH /v1/runs/{id}/faults", s.handlePatchFaults)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errorBody is the payload of the uniform /v1 error envelope:
//
//	{"error": {"code": "<stable slug>", "message": "<human text>"}}
//
// Every /v1 handler emits exactly this shape on failure; status codes
// are unchanged from the flat era. The pre-envelope body — a bare
// string under "error" — is deprecated and no longer emitted; clients
// that matched on it should branch on error.code instead.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError emits the /v1 error envelope with a slug derived from the
// status; handlers with a more specific cause use httpErrorCode.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpErrorCode(w, code, codeSlug(code), format, args...)
}

// httpErrorCode emits the /v1 error envelope with an explicit code slug.
func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]errorBody{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// codeSlug is the default machine-readable code for an HTTP status.
func codeSlug(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "unavailable"
	}
	return "internal"
}

// decode reads a request body into v, rejecting unknown fields; on
// failure it has already answered 400.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleLaunch admits a run: validate, register the session, and submit
// to the pool. 429 when the pool is saturated, 503 when draining.
func (s *server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var req apps.Spec
	if !decode(w, r, &req) {
		return
	}
	run, err := req.Resolve(s.reg)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	ss := &session{
		req:     req,
		bcast:   trace.NewBroadcaster(s.cfg.traceCap),
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   stateQueued,
		created: time.Now(),
	}
	opts := run.Opts
	opts.Sinks = []trace.Sink{ss.bcast}
	// Capture the cluster's live network handle so PATCH
	// /v1/runs/{id}/faults can swap fault rules mid-run. netsim's mutating
	// entry points lock internally, so the handler may call them from
	// outside the simulation.
	opts.Configure = func(cfg *core.Config) {
		cfg.NetHook = func(n *netsim.Net) {
			ss.mu.Lock()
			ss.net = n
			ss.mu.Unlock()
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		httpErrorCode(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	s.nextID++
	ss.id = "r" + strconv.Itoa(s.nextID)
	s.sessions[ss.id] = ss
	s.order = append(s.order, ss.id)
	s.mu.Unlock()

	job := func() error {
		ss.mu.Lock()
		ss.state = stateRunning
		ss.started = time.Now()
		ss.mu.Unlock()
		rep, err := run.App.RunWithContext(ctx, run.Procs, run.Proto, opts)
		ss.mu.Lock()
		ss.finished = time.Now()
		ss.report = rep
		switch {
		case err == nil:
			ss.state = stateDone
		case errors.Is(err, context.Canceled):
			ss.state = stateCancelled
			ss.err = "cancelled"
		default:
			ss.state = stateError
			ss.err = err.Error()
		}
		ss.mu.Unlock()
		return nil // run outcome lives on the session, not the pool
	}
	finish := func(poolErr error) {
		if poolErr != nil { // a panic the pool contained
			ss.mu.Lock()
			ss.state = stateError
			ss.err = poolErr.Error()
			ss.finished = time.Now()
			ss.mu.Unlock()
		}
		ss.bcast.Close()
		close(ss.done)
		s.activeSessions.Dec()
		cancel()
	}
	s.activeSessions.Inc()
	if err := s.pool.TrySubmit(job, finish); err != nil {
		s.activeSessions.Dec()
		s.mu.Lock()
		delete(s.sessions, ss.id)
		for i, id := range s.order {
			if id == ss.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		cancel()
		code := http.StatusTooManyRequests
		if errors.Is(err, sweep.ErrPoolClosed) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, ss.doc(false))
}

func (s *server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	byID := make(map[string]*session, len(s.sessions))
	for id, ss := range s.sessions {
		byID[id] = ss
	}
	s.mu.Unlock()
	docs := make([]sessionDoc, 0, len(ids))
	for _, id := range ids {
		if ss := byID[id]; ss != nil {
			docs = append(docs, ss.doc(false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": docs})
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("id"))
	if ss == nil {
		httpError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, ss.doc(true))
}

// handleCancel aborts a queued or running session. Cancelling a finished
// session is a no-op that reports its final state.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("id"))
	if ss == nil {
		httpError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	ss.cancel()
	writeJSON(w, http.StatusAccepted, ss.doc(false))
}

// handlePatchFaults swaps a running session's fault rules live. The body
// is an apps.FaultSpec, held to the rules it would meet at launch; an
// all-zero body clears every rule. Crash rules
// cannot be added mid-run (the checkpoint machinery must arm at launch),
// and the session must have been launched with a fault plan — both are
// 409s from netsim. 404 unknown id, 400 invalid knobs, 409 when the
// session is not running (or the cluster is not assembled yet).
func (s *server) handlePatchFaults(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("id"))
	if ss == nil {
		httpError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	spec := ss.req // resolved at launch, so only the new faults can fail
	spec.Faults = new(apps.FaultSpec)
	if !decode(w, r, spec.Faults) {
		return
	}
	run, err := spec.Resolve(nil)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan := run.Opts.Faults
	if plan == nil {
		// "Clear every rule" is a valid swap; SwapFaults wants a plan.
		plan = &netsim.FaultPlan{Seed: 1}
	}
	ss.mu.Lock()
	state, net := ss.state, ss.net
	ss.mu.Unlock()
	if state != stateRunning || net == nil {
		httpError(w, http.StatusConflict, "session %s is %s; faults can only be toggled on a running session", ss.id, state)
		return
	}
	if err := net.SwapFaults(plan); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ss.doc(false))
}

// sseEvent is the SSE data payload for one trace event.
type sseEvent struct {
	T    sim.Time `json:"t"`
	Node int      `json:"node"`
	Kind string   `json:"kind"`
	Page int      `json:"page"`
	Arg  int64    `json:"arg"`
}

// handleEvents streams a session's trace events as Server-Sent Events:
// the ring replay first, then live events until the run finishes (a
// final "done" event carries the session document) or the client goes
// away. ?kinds=bar-release,segv narrows to the named kinds; ?buffer=N
// sizes the subscription (default 1024) — a client that cannot keep up
// loses events rather than stalling the engine, and the count lost is
// reported on the done event.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("id"))
	if ss == nil {
		httpError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	var kinds []trace.Kind
	if q := r.URL.Query().Get("kinds"); q != "" {
		for _, name := range strings.Split(q, ",") {
			k, err := trace.ParseKind(strings.TrimSpace(name))
			if err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			kinds = append(kinds, k)
		}
	}
	buffer := 1024
	if q := r.URL.Query().Get("buffer"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "buffer %q: want a positive integer", q)
			return
		}
		buffer = n
	}

	sub := ss.bcast.Subscribe(buffer, kinds...)
	defer ss.bcast.Unsubscribe(sub)
	s.sseClients.Inc()
	defer s.sseClients.Dec()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-sub.C():
			if !ok {
				doc := ss.doc(false)
				doc.DroppedEvents += sub.Dropped() // ring evictions + this client's losses
				enc("done", doc)
				return
			}
			if !enc("trace", sseEvent{T: e.T, Node: e.Node, Kind: e.Kind.String(), Page: e.Page, Arg: e.Arg}) {
				return
			}
		}
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

// drain stops admissions, waits up to timeout for in-flight sessions,
// cancels whatever is still running, and shuts the pool down. Returns
// the ids of sessions that had to be cancelled.
func (s *server) drain(timeout time.Duration) []string {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
		s.sweepStop = nil
	}
	s.mu.Lock()
	s.draining = true
	open := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		open = append(open, ss)
	}
	s.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	expired := false
	var cancelled []string
	for _, ss := range open {
		if !expired {
			select {
			case <-ss.done:
				continue
			case <-deadline.C:
				expired = true
			}
		}
		// Past the deadline: abort this and every remaining session, then
		// wait — a cancelled run stops at the next simulation event.
		ss.cancel()
		select {
		case <-ss.done:
		default:
			cancelled = append(cancelled, ss.id)
			<-ss.done
		}
	}
	s.pool.Close()
	sort.Strings(cancelled)
	return cancelled
}
