package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"godsm/internal/apps"
	"godsm/internal/core"
)

func newTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// launch POSTs a run request and decodes the accepted session document.
func launch(t *testing.T, ts *httptest.Server, req apps.Spec) sessionDoc {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/runs: %d: %s: %s", resp.StatusCode, e["error"].Code, e["error"].Message)
	}
	var doc sessionDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func ptr[T any](v T) *T { return &v }

// getDoc fetches a session's raw status document.
func getDoc(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// waitState polls a session until it reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) sessionDoc {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := getDoc(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s: %d: %s", id, code, body)
		}
		var doc sessionDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		switch doc.State {
		case stateDone, stateError, stateCancelled:
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in state %s", id, doc.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readSSE consumes a session's event stream until the done event,
// returning the trace events and the done-event session document.
func readSSE(t *testing.T, ts *httptest.Server, id, query string) ([]sseEvent, sessionDoc) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var (
		events []sseEvent
		final  sessionDoc
		event  string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "trace":
				var e sseEvent
				if err := json.Unmarshal(data, &e); err != nil {
					t.Fatalf("bad trace event %q: %v", data, err)
				}
				events = append(events, e)
			case "done":
				if err := json.Unmarshal(data, &final); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				return events, final
			}
		}
	}
	t.Fatalf("SSE stream ended without a done event (%v)", sc.Err())
	return nil, final
}

// TestE2ESimRun is the control plane's end-to-end check: launch a
// simulated run over HTTP, tail its SSE stream to completion, and hold
// the streamed epoch count and the final report to what a direct
// in-process run of the same configuration produces.
func TestE2ESimRun(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 2, queueCap: 8, traceCap: 1 << 16})
	doc := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(4), Small: true, Timeline: true})
	if doc.State != stateQueued && doc.State != stateRunning {
		t.Fatalf("launch state = %s", doc.State)
	}

	events, final := readSSE(t, ts, doc.ID, "?kinds=bar-release")
	if final.State != stateDone {
		t.Fatalf("final state = %s (error %q)", final.State, final.Error)
	}
	node0 := 0
	for _, e := range events {
		if e.Kind != "bar-release" {
			t.Fatalf("kind filter leaked a %q event", e.Kind)
		}
		if e.Node == 0 {
			node0++
		}
	}

	code, body := getDoc(t, ts, doc.ID)
	if code != http.StatusOK {
		t.Fatalf("GET: %d", code)
	}
	var full struct {
		Epochs int          `json:"epochs"`
		Report *core.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Report == nil || full.Report.Timeline == nil {
		t.Fatal("status document is missing the timeline report")
	}
	if got := len(full.Report.Timeline.Epochs); node0 != got || full.Epochs != got {
		t.Fatalf("node-0 bar-release events = %d, epochs field = %d, timeline epochs = %d; want all equal",
			node0, full.Epochs, got)
	}

	// The same configuration run directly must produce a bit-identical
	// report: the server adds observers, never behaviour.
	app := appByName(t, "jacobi", true)
	direct, err := app.RunWith(4, core.ProtoBarU, apps.RunOpts{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(full.Report)
	wantJSON, _ := json.Marshal(direct)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("server report diverges from a direct run\nserver: %.300s\ndirect: %.300s", gotJSON, wantJSON)
	}
}

func appByName(t *testing.T, name string, small bool) *apps.App {
	t.Helper()
	list := apps.All()
	if small {
		list = apps.Small()
	}
	for _, a := range list {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no app %q", name)
	return nil
}

// TestMetricsExposition launches one sim run and one mem-transport run
// and checks /metrics exposes non-zero core and transport counters.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 2, queueCap: 8})
	a := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(4), Small: true})
	b := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true, Transport: "mem"})
	waitState(t, ts, a.ID)
	waitState(t, ts, b.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`godsm_runs_total{protocol="bar-u",status="ok"} 2`,
		`godsm_messages_total{protocol="bar-u"}`,
		`godsm_transport_frames_sent_total{backend="mem"}`,
		`godsm_sweep_jobs_total{outcome="accepted"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, zero := range []string{
		`godsm_messages_total{protocol="bar-u"} 0`,
		`godsm_transport_frames_sent_total{backend="mem"} 0`,
	} {
		if strings.Contains(out, zero) {
			t.Errorf("/metrics counter unexpectedly zero: %q", zero)
		}
	}
}

// simProcGoroutines counts the goroutines hosting a simulator proc body.
// Counting them by frame, not runtime.NumGoroutine, keeps the HTTP client's
// and server's connection goroutines out of the comparison.
func simProcGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "sim.(*Proc).host(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCancelMidRun aborts a full-size run mid-flight over the API: the
// session ends cancelled, and none of the run's sixteen procs (compute and
// service per node), parked mid-body when the DELETE lands, outlives it.
func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 4})
	if n := simProcGoroutines(); n != 0 {
		t.Fatalf("%d simulator procs alive before the launch", n)
	}
	doc := launch(t, ts, apps.Spec{App: "barnes", Proto: "bar-u", Procs: ptr(8)})
	for deadline := time.Now().Add(time.Minute); simProcGoroutines() < 16; {
		if time.Now().After(deadline) {
			t.Fatal("the run never started its procs")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+doc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	final := waitState(t, ts, doc.ID)
	if final.State != stateCancelled {
		t.Fatalf("state after cancel = %s (error %q)", final.State, final.Error)
	}
	if final.Report != nil {
		t.Fatal("cancelled run produced a report")
	}
	for deadline := time.Now().Add(5 * time.Second); simProcGoroutines() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d simulator procs still alive after the cancelled run", simProcGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
	// The SSE stream of a cancelled session still terminates with done.
	_, sseFinal := readSSE(t, ts, doc.ID, "?kinds=bar-release")
	if sseFinal.State != stateCancelled {
		t.Fatalf("SSE done state = %s", sseFinal.State)
	}
}

// TestSlowSubscriberDrops pins the drop policy at the session layer: a
// subscriber that never drains its one-slot buffer loses events instead
// of stalling the run.
func TestSlowSubscriberDrops(t *testing.T) {
	srv, ts := newTestServer(t, config{workers: 1, queueCap: 4, traceCap: 16})
	// Park the only worker on a gate job so the session stays queued —
	// FIFO order guarantees it cannot emit anything until the gate opens,
	// after the one-slot subscription is attached.
	gate := make(chan struct{})
	if err := srv.pool.TrySubmit(func() error { <-gate; return nil }, func(error) {}); err != nil {
		t.Fatal(err)
	}
	b := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true})
	sub := srv.lookup(b.ID).bcast.Subscribe(1)
	close(gate)
	waitState(t, ts, b.ID)
	if got := sub.Dropped(); got == 0 {
		t.Fatal("undrained subscriber dropped nothing; the run should out-emit a 1-slot buffer")
	}
}

// TestUnknownRunID covers the 404 surface.
func TestUnknownRunID(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/runs/nope"},
		{http.MethodDelete, "/v1/runs/nope"},
		{http.MethodGet, "/v1/runs/nope/events"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestLaunchValidation covers the 400 surface: requests the engine would
// reject or silently misread fail up front.
func TestLaunchValidation(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	cases := []struct {
		name string
		body string
		want string // error.message starts with this, then a space
	}{
		{"unknown app", `{"app":"nope","proto":"bar-u"}`, "app"},
		{"unknown proto", `{"app":"jacobi","proto":"bar-x"}`, "proto"},
		{"dynamic app under overdrive", `{"app":"barnes","proto":"bar-s"}`, "proto"},
		{"seq over transport", `{"app":"jacobi","proto":"seq","transport":"mem"}`, "transport"},
		{"unknown transport", `{"app":"jacobi","proto":"bar-u","transport":"rdma"}`, "transport"},
		{"loss above 1", `{"app":"jacobi","proto":"bar-u","faults":{"loss":1.5}}`, "faults.loss"},
		{"negative delay", `{"app":"jacobi","proto":"bar-u","faults":{"delay_ns":-1}}`, "faults.delay_ns"},
		{"unknown field", `{"app":"jacobi","proto":"bar-u","bogus":1}`, "bad request body:"},
		{"negative procs", `{"app":"jacobi","proto":"bar-u","procs":-2}`, "procs"},
		{"explicit zero procs", `{"app":"jacobi","proto":"bar-u","procs":0}`, "procs"},
		{"procs past the copyset bound", `{"app":"jacobi","proto":"bar-u","procs":1000}`, "procs"},
		{"small dynamic app under overdrive", `{"app":"barnes","proto":"bar-s","small":true}`, "proto"},
	}
	for _, tc := range cases {
		postRejected(t, ts, tc.name, tc.body, tc.want)
	}
	// Bad SSE parameters are 400s too, against a real session.
	doc := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true})
	waitState(t, ts, doc.ID)
	for _, q := range []string{"?kinds=bogus", "?buffer=0", "?buffer=x"} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + doc.ID + "/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("events%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// postRejected POSTs a launch body and requires a 400 whose message
// starts with want: the spec field at fault, or the decoder's complaint.
func postRejected(t *testing.T, ts *httptest.Server, name, body, want string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]errorBody
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%s: %d, want 400", name, resp.StatusCode)
	} else if msg := env["error"].Message; !strings.HasPrefix(msg, want+" ") {
		t.Errorf("%s: message %q does not name %q", name, msg, want)
	}
}

// TestWorkersFieldRemoved pins the removal of the sharded-kernel knob:
// a launch carrying "workers" is a 400 whose message names the field.
func TestWorkersFieldRemoved(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"jacobi","proto":"bar-u","small":true,"workers":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env map[string]errorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if msg := env["error"].Message; !strings.Contains(msg, `unknown field "workers"`) {
		t.Errorf("400 message does not name the field: %q", msg)
	}
}

// TestCrashPlanRun launches a session whose fault plan crashes a node
// mid-run and restarts it in place: the session completes cleanly and
// the report carries the recovery counters.
func TestCrashPlanRun(t *testing.T) {
	restart := 0
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	doc := launch(t, ts, apps.Spec{
		App: "jacobi", Proto: "bar-u", Procs: ptr(4), Small: true,
		Faults: &apps.FaultSpec{Crashes: []apps.CrashSpec{{Node: 2, Epoch: 3, RestartAfter: &restart}}},
	})
	final := waitState(t, ts, doc.ID)
	if final.State != stateDone {
		t.Fatalf("crash-plan run: %s (error %q)", final.State, final.Error)
	}
	code, body := getDoc(t, ts, doc.ID)
	if code != http.StatusOK {
		t.Fatalf("GET: %d", code)
	}
	var full struct {
		Report *core.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Report.Total.Crashes != 1 || full.Report.Total.Restarts != 1 {
		t.Fatalf("crash counters = %d/%d, want 1/1",
			full.Report.Total.Crashes, full.Report.Total.Restarts)
	}
	if full.Report.Total.CheckpointBytes == 0 {
		t.Fatal("recovery ran but no checkpoint bytes are accounted")
	}
}

// TestCrashPlanValidation covers the 400 surface of launch-time crash
// rules, mirroring dsmrun's -crash validation.
func TestCrashPlanValidation(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	cases := []struct {
		name string
		body string
		want string // error.message starts with this, then a space
	}{
		{"node zero", `{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":0,"epoch":3}]}}`, "faults.crashes"},
		{"node out of range", `{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":4,"epoch":3}]}}`, "faults.crashes"},
		{"epoch zero", `{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":2,"epoch":0}]}}`, "faults.crashes"},
		{"duplicate node", `{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":2,"epoch":3},{"node":2,"epoch":5}]}}`, "faults.crashes"},
		{"negative restart", `{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":2,"epoch":3,"restart_after":-1}]}}`, "faults.crashes.restart_after"},
		{"crash under seq", `{"app":"jacobi","proto":"seq","faults":{"crashes":[{"node":1,"epoch":3}]}}`, "faults.crashes"},
		{"crash over mem", `{"app":"jacobi","proto":"bar-u","procs":4,"small":true,"transport":"mem","faults":{"crashes":[{"node":2,"epoch":3}]}}`, "faults.crashes"},
	}
	for _, tc := range cases {
		postRejected(t, ts, tc.name, tc.body, tc.want)
	}
}

// patchFaults PATCHes a session's fault rules and returns the status
// code plus response body.
func patchFaults(t *testing.T, ts *httptest.Server, id, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/runs/"+id+"/faults", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestPatchFaultsLive drives the live fault toggle end to end: a running
// session launched with an armed fault plan accepts new rules mid-run,
// rejects crash additions and malformed knobs, and refuses the toggle
// once finished. Unknown ids 404.
func TestPatchFaultsLive(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 4})

	if code, _ := patchFaults(t, ts, "nope", `{"loss":0.1}`); code != http.StatusNotFound {
		t.Fatalf("PATCH unknown id: %d, want 404", code)
	}

	// Full-size barnes stays in flight for seconds, so every PATCH below
	// lands mid-run; the armed (if quiet) launch plan is what makes live
	// swaps possible.
	doc := launch(t, ts, apps.Spec{
		App: "barnes", Proto: "bar-u", Procs: ptr(8),
		Faults: &apps.FaultSpec{Loss: 0.01, Seed: ptr[int64](7)},
	})
	deadline := time.Now().Add(time.Minute)
	for {
		code, body := patchFaults(t, ts, doc.ID, `{"loss":0.2,"dup":0.05}`)
		if code == http.StatusOK {
			break
		}
		// 409 while the session is still queued or assembling its cluster.
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("PATCH live swap: %d: %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, body := patchFaults(t, ts, doc.ID, `{"loss":1.5}`); code != http.StatusBadRequest {
		t.Fatalf("PATCH loss 1.5: %d: %s", code, body)
	}
	if code, body := patchFaults(t, ts, doc.ID, `{"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("PATCH unknown field: %d: %s", code, body)
	}
	code, body := patchFaults(t, ts, doc.ID, `{"crashes":[{"node":2,"epoch":3}]}`)
	if code != http.StatusConflict || !strings.Contains(string(body), "crash rules") {
		t.Fatalf("PATCH crash addition: %d: %s", code, body)
	}

	// Clearing the rules mid-run is a valid swap too.
	if code, body := patchFaults(t, ts, doc.ID, `{}`); code != http.StatusOK {
		t.Fatalf("PATCH clear rules: %d: %s", code, body)
	}

	final := waitState(t, ts, doc.ID)
	if final.State != stateDone {
		t.Fatalf("patched run: %s (error %q)", final.State, final.Error)
	}
	if code, body := patchFaults(t, ts, doc.ID, `{"loss":0.1}`); code != http.StatusConflict {
		t.Fatalf("PATCH finished session: %d: %s", code, body)
	}
}

// TestPatchFaultsUnarmed: a session launched without any fault plan has
// no injector to swap; the PATCH is a 409, not a crash.
func TestPatchFaultsUnarmed(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 4})
	doc := launch(t, ts, apps.Spec{App: "barnes", Proto: "bar-u", Procs: ptr(8)})
	deadline := time.Now().Add(time.Minute)
	for {
		code, body := patchFaults(t, ts, doc.ID, `{"loss":0.2}`)
		if code == http.StatusConflict && strings.Contains(string(body), "not armed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("PATCH unarmed session: %d: %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+doc.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, ts, doc.ID)
}

// TestSessionGC drives the retention sweep: finished sessions expire
// past the TTL (and thereafter 404), the count cap evicts oldest-first,
// live sessions are never evicted, and the eviction counter moves.
func TestSessionGC(t *testing.T) {
	srv, ts := newTestServer(t, config{
		workers: 2, queueCap: 8,
		sessionTTL: 50 * time.Millisecond,
		sweepEvery: 10 * time.Millisecond,
	})
	doc := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true})
	waitState(t, ts, doc.ID)

	deadline := time.Now().Add(time.Minute)
	for {
		code, _ := getDoc(t, ts, doc.ID)
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still resolvable long past its TTL", doc.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.sessionsExpired.Value(); got != 1 {
		t.Fatalf("sessions-expired counter = %d, want 1", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "godsm_dsmd_sessions_expired 1") {
		t.Errorf("/metrics missing the eviction counter:\n%.2000s", buf.String())
	}
}

// TestSessionGCCountCap exercises the cap half of the sweep directly
// (deterministic clock): oldest finished sessions go first, live ones
// are immune even when the table is over the cap.
func TestSessionGCCountCap(t *testing.T) {
	srv, ts := newTestServer(t, config{workers: 2, queueCap: 8, maxSessions: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		doc := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true})
		waitState(t, ts, doc.ID)
		ids = append(ids, doc.ID)
	}
	if got := srv.sweepExpired(time.Now()); got != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", got)
	}
	if code, _ := getDoc(t, ts, ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest session survived the cap sweep: %d", code)
	}
	for _, id := range ids[1:] {
		if code, _ := getDoc(t, ts, id); code != http.StatusOK {
			t.Errorf("session %s evicted though under the cap: %d", id, code)
		}
	}

	// A live session over the cap is untouchable: park the pool on a
	// gate so a fourth session stays queued, then sweep.
	gate := make(chan struct{})
	if err := srv.pool.TrySubmit(func() error { <-gate; return nil }, func(error) {}); err != nil {
		t.Fatal(err)
	}
	if err := srv.pool.TrySubmit(func() error { <-gate; return nil }, func(error) {}); err != nil {
		t.Fatal(err)
	}
	live := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true})
	if got := srv.sweepExpired(time.Now()); got != 1 {
		t.Fatalf("second sweep evicted %d sessions, want 1 (the older finished one)", got)
	}
	if code, _ := getDoc(t, ts, live.ID); code != http.StatusOK {
		t.Errorf("queued session evicted by the cap sweep: %d", code)
	}
	close(gate)
	waitState(t, ts, live.ID)
}

// TestSaturation turns a full pool into 429, not queuing.
func TestSaturation(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 0})
	doc := launch(t, ts, apps.Spec{App: "barnes", Proto: "bar-u", Procs: ptr(8)}) // full-size barnes: reliably stays busy

	body := `{"app":"jacobi","proto":"bar-u","procs":2,"small":true}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated launch: %d, want 429", resp.StatusCode)
	}
	// The refused launch must not leave a ghost session behind.
	listResp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs []sessionDoc `json:"runs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list.Runs) != 1 || list.Runs[0].ID != doc.ID {
		t.Fatalf("session list after refusal: %+v", list.Runs)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+doc.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, ts, doc.ID)
}

// TestDrain verifies graceful shutdown: a drain past its deadline
// cancels in-flight runs, and a draining server refuses new launches.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, config{workers: 2, queueCap: 4})
	doc := launch(t, ts, apps.Spec{App: "barnes", Proto: "bar-u", Procs: ptr(8)}) // full-size barnes: reliably outlives the drain window

	cancelled := srv.drain(50 * time.Millisecond)
	if len(cancelled) != 1 || cancelled[0] != doc.ID {
		t.Fatalf("drain cancelled %v, want [%s]", cancelled, doc.ID)
	}
	final := waitState(t, ts, doc.ID)
	if final.State != stateCancelled {
		t.Fatalf("state after drain = %s", final.State)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"jacobi","proto":"bar-u","procs":2,"small":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("launch while draining: %d, want 503", resp.StatusCode)
	}
}

// TestDrainWaitsForCompletion: a drain with headroom lets runs finish.
func TestDrainWaitsForCompletion(t *testing.T) {
	srv, ts := newTestServer(t, config{workers: 2, queueCap: 4})
	doc := launch(t, ts, apps.Spec{App: "jacobi", Proto: "bar-u", Procs: ptr(2), Small: true})
	if cancelled := srv.drain(2 * time.Minute); len(cancelled) != 0 {
		t.Fatalf("drain cancelled %v, want none", cancelled)
	}
	final := waitState(t, ts, doc.ID)
	if final.State != stateDone {
		t.Fatalf("state after patient drain = %s (error %q)", final.State, final.Error)
	}
}

// TestFaultedRun drives the fault-plan path end to end: injected faults
// show up in the report and the fault-verdict counters.
func TestFaultedRun(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	doc := launch(t, ts, apps.Spec{
		App: "jacobi", Proto: "bar-u", Procs: ptr(4), Small: true,
		Faults: &apps.FaultSpec{Loss: 0.05, Seed: ptr[int64](7)},
	})
	final := waitState(t, ts, doc.ID)
	if final.State != stateDone {
		t.Fatalf("faulted run: %s (error %q)", final.State, final.Error)
	}
	code, body := getDoc(t, ts, doc.ID)
	if code != http.StatusOK {
		t.Fatalf("GET: %d", code)
	}
	var full struct {
		Report *core.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Report.Total.NetDrops == 0 {
		t.Fatal("5% loss injected but the report counts no drops")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	// The metric covers the whole run; the report's NetDrops only the
	// measured window — so assert presence and non-zero, not equality.
	out := buf.String()
	if !strings.Contains(out, `godsm_net_faults_total{class="drop"}`) {
		t.Errorf("/metrics missing the drop-verdict counter:\n%.2000s", out)
	}
	if strings.Contains(out, `godsm_net_faults_total{class="drop"} 0`) {
		t.Error("drop-verdict counter is zero despite injected loss")
	}
}

// TestKVLaunchValidation mirrors dsmrun's kv flag validation at the
// REST surface: every nonsensical traffic parameter is a 400 before any
// run starts.
func TestKVLaunchValidation(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 1})
	cases := []struct {
		name string
		body string
		want string // error.message starts with this, then a space
	}{
		{"negative ops", `{"app":"kv","proto":"bar-u","kv":{"ops":-1}}`, "kv.ops"},
		{"negative zipf", `{"app":"kv","proto":"bar-u","kv":{"dist":"zipf=-1"}}`, "kv.dist"},
		{"unknown dist", `{"app":"kv","proto":"bar-u","kv":{"dist":"pareto"}}`, "kv.dist"},
		{"write above one", `{"app":"kv","proto":"bar-u","kv":{"write":1.5}}`, "kv.write"},
		{"bad mix", `{"app":"kv","proto":"bar-u","kv":{"mix":"reads=1"}}`, "kv.mix"},
		{"shards below procs", `{"app":"kv","proto":"bar-u","procs":8,"kv":{"shards":4}}`, "kv.shards"},
		{"locks under bar", `{"app":"kv","proto":"bar-u","kv":{"locks":true}}`, "kv.locks"},
		{"zero keys", `{"app":"kv","proto":"bar-u","kv":{"keys":-1}}`, "kv.keys"},
		{"kv params on stencil", `{"app":"jacobi","proto":"bar-u","kv":{"ops":100}}`, "kv"},
		{"unknown kv field", `{"app":"kv","proto":"bar-u","kv":{"bogus":1}}`, "bad request body:"},
		{"default shards below procs", `{"app":"kv","proto":"bar-u","small":true,"procs":32}`, "kv.shards"},
		{"explicit zero keys", `{"app":"kv","proto":"bar-u","kv":{"keys":0}}`, "kv.keys"},
	}
	for _, tc := range cases {
		postRejected(t, ts, tc.name, tc.body, tc.want)
	}
}

// TestKVLaunchRun drives a kv session end to end through the server:
// custom traffic parameters, completion, a checksummed report, and the
// workload's godsm_kv_* series on GET /metrics.
func TestKVLaunchRun(t *testing.T) {
	_, ts := newTestServer(t, config{workers: 1, queueCap: 2, traceCap: 1 << 14})
	ops := 8000
	doc := launch(t, ts, apps.Spec{
		App: "kv", Proto: "bar-u", Procs: ptr(4), Small: true, Timeline: true,
		KV: &apps.KVSpec{Ops: &ops, Dist: "zipf=1.2", Mix: "write=0.3,scan=0.05,scanlen=8", Seed: ptr[uint64](9)},
	})
	final := waitState(t, ts, doc.ID)
	if final.State != stateDone {
		t.Fatalf("final state = %s (error %q)", final.State, final.Error)
	}
	if final.Report == nil || !final.Report.HasChecksum {
		t.Fatal("kv session carries no checksummed report")
	}
	if final.Epochs == 0 {
		t.Fatal("kv session recorded no epochs")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"godsm_kv_ops_total", "godsm_kv_op_virtual_us", "godsm_kv_hot_page_ops"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}
