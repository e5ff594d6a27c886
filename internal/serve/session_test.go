package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func createSession(t *testing.T, url, body string) SessionResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d, want 201", resp.StatusCode)
	}
	sr := decodeBody[SessionResponse](t, resp)
	if sr.ID == "" || sr.Stream == "" {
		t.Fatalf("session create body %+v missing id/stream", sr)
	}
	return sr
}

func doReq(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

// TestSessionLifecycle pins creation, cancellation, and the not-found
// taxonomy: DELETE removes an unattached session, a second DELETE and a
// stream attach for it are 404s, and unknown ids are 404s.
func TestSessionLifecycle(t *testing.T) {
	s := NewServer(Options{Shards: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := createSession(t, ts.URL, `{"text":"pw"}`)
	if !strings.HasPrefix(sr.Stream, "/v1/sessions/") {
		t.Fatalf("stream path %q", sr.Stream)
	}
	resp := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	for _, u := range []string{
		ts.URL + "/v1/sessions/" + sr.ID,
		ts.URL + "/v1/sessions/nope",
	} {
		resp := doReq(t, http.MethodDelete, u)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("delete %s: status %d, want 404", u, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp = doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream after delete: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// A bad request fails at creation, not at attach.
	bad := postJSON(t, ts.URL+"/v1/sessions", `{"text":""}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-text session: status %d, want 400", bad.StatusCode)
	}
	bad.Body.Close()
}

// TestSessionStreamSetupErrorIsPlainJSON pins that a failure before any
// stream byte (here: pretrained_only with a cold registry) answers a
// normal JSON error with the one-shot status taxonomy (412), and that the
// failed attach consumes the session.
func TestSessionStreamSetupErrorIsPlainJSON(t *testing.T) {
	s := NewServer(Options{Shards: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := createSession(t, ts.URL, `{"text":"pw","pretrained_only":true}`)
	resp := doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("cold pretrained stream: status %d, want 412", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("setup error Content-Type %q, want application/json", ct)
	}
	er := decodeBody[ErrorResponse](t, resp)
	if er.Status != http.StatusPreconditionFailed {
		t.Fatalf("error body %+v", er)
	}
	resp = doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-attach after failed stream: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSessionSingleUse pins the consumed contract: while one attach is
// streaming (parked in a blocked training), a second attach answers 409.
func TestSessionSingleUse(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := createSession(t, ts.URL, `{"text":"ab"}`)
	done := make(chan int, 1)
	go func() {
		resp := doReq(t, http.MethodGet, ts.URL+sr.Stream)
		// Read to the end: the body ends only once the handler has retired
		// the session, which the attach-after-completion check relies on.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status code is the signal
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitCounter(t, s, "serve.admitted", 1)

	resp := doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second attach: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("first attach: status %d, want 200", code)
	}
	// The stream ran to completion; the session is gone.
	resp = doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("attach after completion: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSessionTableBounds pins bounded session state: at MaxSessions the
// oldest unattached session is evicted; when every resident session is
// streaming, creation answers 429.
func TestSessionTableBounds(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1, MaxSessions: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s1 := createSession(t, ts.URL, `{"text":"one"}`)
	s2 := createSession(t, ts.URL, `{"text":"two"}`)
	s3 := createSession(t, ts.URL, `{"text":"three"}`)
	if s3.ID == s1.ID || s3.ID == s2.ID {
		t.Fatalf("session ids not unique: %q %q %q", s1.ID, s2.ID, s3.ID)
	}
	// s1 was the oldest unattached: evicted.
	resp := doReq(t, http.MethodGet, ts.URL+s1.Stream)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session stream: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.m.Snapshot()["serve.sessions.evicted"]; got != 1 {
		t.Fatalf("serve.sessions.evicted = %v, want 1", got)
	}

	// Park both survivors in blocked streams: the table is full of
	// streaming sessions, so creation must refuse rather than evict.
	done := make(chan int, 2)
	for _, sr := range []SessionResponse{s2, s3} {
		go func(stream string) {
			resp := doReq(t, http.MethodGet, ts.URL+stream)
			resp.Body.Close()
			done <- resp.StatusCode
		}(sr.Stream)
	}
	waitCounter(t, s, "serve.admitted", 2)
	resp = postJSON(t, ts.URL+"/v1/sessions", `{"text":"four"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create with all sessions streaming: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("parked stream finished with %d, want 200", code)
		}
	}
}

// TestSessionIdleReap pins the injected idle-timer hook: the daemon's
// reap callback drops an unattached session (404 afterwards), and a
// session that attaches first stops its timer.
func TestSessionIdleReap(t *testing.T) {
	var reaps []func()
	stopped := 0
	s := NewServer(Options{
		Shards: 1,
		SessionTimer: func(reap func()) func() {
			reaps = append(reaps, reap)
			return func() { stopped++ }
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := createSession(t, ts.URL, `{"text":"idle"}`)
	if len(reaps) != 1 {
		t.Fatalf("SessionTimer armed %d times, want 1", len(reaps))
	}
	reaps[0]() // the daemon's timer fires
	resp := doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reaped session stream: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.m.Snapshot()["serve.sessions.idle_reaped"]; got != 1 {
		t.Fatalf("serve.sessions.idle_reaped = %v, want 1", got)
	}
	reaps[0]() // late second fire must be harmless

	// An attach stops the pending timer (claim) even when the stream
	// errors afterwards.
	sr2 := createSession(t, ts.URL, `{"text":"used","pretrained_only":true}`)
	before := stopped
	resp = doReq(t, http.MethodGet, ts.URL+sr2.Stream)
	resp.Body.Close()
	if stopped != before+1 {
		t.Fatalf("attach stopped %d timers, want 1", stopped-before)
	}
	if len(reaps) != 2 {
		t.Fatalf("SessionTimer armed %d times, want 2", len(reaps))
	}
	reaps[1]() // timer fires after consumption: no-op
}

// TestSessionDrainingRefusesCreateAndAttach pins drain-aware teardown:
// once Shutdown begins, POST /v1/sessions answers 503 and sessions
// created earlier are dropped (stream attach 404s, timers stopped).
func TestSessionDrainingRefusesCreateAndAttach(t *testing.T) {
	stopped := 0
	s := NewServer(Options{
		Shards:       1,
		SessionTimer: func(func()) func() { return func() { stopped++ } },
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := createSession(t, ts.URL, `{"text":"doomed"}`)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/sessions", `{"text":"late"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doReq(t, http.MethodGet, ts.URL+sr.Stream)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("attach after drain: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if stopped != 1 {
		t.Fatalf("drain stopped %d idle timers, want 1", stopped)
	}
}

// TestSessionStreamFrames runs one real (blocked-training-free) stream
// against the fake-model server and pins the SSE framing: an "open"
// frame first, a closing "result" frame, monotonically numbered ids, and
// the text/event-stream content type.
func TestSessionStreamFrames(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1})
	close(release) // trainings return the fake model immediately
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := createSession(t, ts.URL, `{"text":"ab","seed":5}`)
	resp := doReq(t, http.MethodGet, ts.URL+sr.Stream)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q, want text/event-stream", ct)
	}
	var events []string
	lastID := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events = append(events, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "id: "):
			id := 0
			if _, err := fmt.Sscanf(line, "id: %d", &id); err != nil || id != lastID+1 {
				t.Fatalf("frame id %q after %d", line, lastID)
			}
			lastID = id
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0] != "open" || events[len(events)-1] != "result" {
		t.Fatalf("event sequence %v, want open ... result", events)
	}
}
