package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/serve"
)

// sessionBody is the session every test streams: 10 frames from a
// replica (the traceparent comment, open, 7 keys, result).
const sessionBody = `{"text":"hunter2","seed":7}`

// clientTraceparent is the trace context the test client mints. Its seed
// differs from the request's, so a stream that announces it proves the
// client's header won over the router minting its own.
var clientTraceparent = obs.NewTrace(99).Traceparent()

// frameKiller is a replica that dies mid-stream: once it has written k
// SSE frames (blank-line-terminated blocks, the ": traceparent" comment
// included), its next write panics with http.ErrAbortHandler, and every
// later request aborts the same way. k < 0 never kills. After
// holdCreates, it also parks every session create until released.
type frameKiller struct {
	h http.Handler

	mu      sync.Mutex
	k       int
	frames  int
	hold    chan struct{}
	arrived chan struct{}
}

// holdCreates parks the replica's session creates until release is
// called: each one is announced on arrived. The test's cleanup releases
// them too, so a failing test never leaves a request parked.
func (fk *frameKiller) holdCreates(t *testing.T) (arrived <-chan struct{}, release func()) {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	hold := make(chan struct{})
	fk.hold, fk.arrived = hold, make(chan struct{}, 1)
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return fk.arrived, release
}

// waitHeld blocks a session create while holdCreates is in force.
func (fk *frameKiller) waitHeld(r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/sessions" {
		return
	}
	fk.mu.Lock()
	hold, arrived := fk.hold, fk.arrived
	fk.mu.Unlock()
	if hold == nil {
		return
	}
	select {
	case arrived <- struct{}{}:
	default:
	}
	<-hold
}

func (fk *frameKiller) arm(k int) {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	fk.k = k
}

func (fk *frameKiller) written() int {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	return fk.frames
}

// dead reports whether the replica has written its k frames; otherwise
// it counts the frames p ends.
func (fk *frameKiller) dead(p []byte) bool {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	if fk.k >= 0 && fk.frames >= fk.k {
		return true
	}
	fk.frames += bytes.Count(p, []byte("\n\n"))
	return false
}

func (fk *frameKiller) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if fk.dead(nil) {
		panic(http.ErrAbortHandler)
	}
	fk.waitHeld(r)
	fk.h.ServeHTTP(killWriter{w, fk}, r)
}

// killWriter routes a replica's response writes through its frameKiller.
type killWriter struct {
	http.ResponseWriter
	fk *frameKiller
}

func (kw killWriter) Write(p []byte) (int, error) {
	if kw.fk.dead(p) {
		panic(http.ErrAbortHandler)
	}
	return kw.ResponseWriter.Write(p)
}

func (kw killWriter) Flush() { kw.ResponseWriter.(http.Flusher).Flush() }

// replica is one in-process gpuleakd behind a frameKiller.
type replica struct {
	kill *frameKiller
	m    *obs.Metrics
}

// testFleet is two replicas and a router over them, every member up as
// if one probe round had passed (the probe loop does not run).
type testFleet struct {
	rt       *router
	url      string // the router
	replicas map[string]*replica
}

func newTestFleet(t *testing.T) *testFleet {
	t.Helper()
	f := &testFleet{replicas: map[string]*replica{}}
	var urls []string
	for i := 0; i < 2; i++ {
		m := obs.NewMetrics()
		fk := &frameKiller{h: serve.NewServer(serve.Options{Shards: 1, Metrics: m}), k: -1}
		ts := httptest.NewServer(fk)
		t.Cleanup(ts.Close)
		f.replicas[ts.URL] = &replica{kill: fk, m: m}
		urls = append(urls, ts.URL)
	}
	f.rt = newRouter(urls, 2, 1, 2)
	for _, u := range urls {
		f.rt.ms.ReportSuccess(u)
	}
	ts := httptest.NewServer(f.rt.handler())
	t.Cleanup(ts.Close)
	f.url = ts.URL
	return f
}

// owner returns the replica the ring assigns the session to, and the
// other one.
func (f *testFleet) owner(t *testing.T) (owner, survivor *replica) {
	t.Helper()
	var req serve.EavesdropRequest
	if err := json.Unmarshal([]byte(sessionBody), &req); err != nil {
		t.Fatal(err)
	}
	key, err := serve.RoutingKey(req)
	if err != nil {
		t.Fatal(err)
	}
	name, ok := f.rt.ms.Owner(key)
	if !ok {
		t.Fatal("no owner for the session key")
	}
	for u, r := range f.replicas {
		if u != name {
			survivor = r
		}
	}
	return f.replicas[name], survivor
}

// createSession registers sessionBody with the router at base, with the
// client's trace context. stream is the session's stream path, empty
// when the create does not answer 201.
func createSession(base string) (resp *http.Response, body []byte, stream string, err error) {
	create, err := http.NewRequest(http.MethodPost, base+"/v1/sessions", strings.NewReader(sessionBody))
	if err != nil {
		return nil, nil, "", err
	}
	create.Header.Set(serve.TraceparentHeader, clientTraceparent)
	resp, err = http.DefaultClient.Do(create)
	if err != nil {
		return nil, nil, "", err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return resp, body, "", err
	}
	var sr serve.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, nil, "", fmt.Errorf("session create: %w", err)
	}
	return resp, body, sr.Stream, nil
}

// openStream creates the session through the router at base, then
// attaches its stream and reads it to the end. A create that does not
// answer 201 is returned as the response.
func openStream(base string) (*http.Response, []byte, error) {
	resp, body, stream, err := createSession(base)
	if err != nil || stream == "" {
		return resp, body, err
	}
	resp, err = http.Get(base + stream)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("reading the stream: %w", err)
	}
	return resp, body, nil
}

// stream opens the session's stream through the router; a session create
// that does not answer 201 fails the test.
func (f *testFleet) stream(t *testing.T) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := openStream(f.url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Request.Method == http.MethodPost {
		t.Fatalf("session create: status %d\n%s", resp.StatusCode, body)
	}
	return resp, body
}

var failoverComment = regexp.MustCompile(`(?m)^: failover [^\n]*\n\n`)

// checkUndisturbed pins what every failover row is compared against: the
// stream opens with the client's trace context and its result frame
// reports an inference equal to the truth.
func checkUndisturbed(t *testing.T, stream []byte) {
	t.Helper()
	frames := strings.Split(string(stream), "\n\n")
	if want := ": traceparent " + clientTraceparent; frames[0] != want {
		t.Fatalf("stream opens with %q, want %q", frames[0], want)
	}
	for _, fr := range frames {
		_, data, ok := strings.Cut(fr, "\nevent: result\ndata: ")
		if !ok {
			continue
		}
		var res serve.EavesdropResponse
		if err := json.Unmarshal([]byte(data), &res); err != nil {
			t.Fatalf("result frame: %v", err)
		}
		if res.Truth != "hunter2" || res.Text != res.Truth {
			t.Fatalf("result eavesdropped %q, truth %q: want both %q", res.Text, res.Truth, "hunter2")
		}
		return
	}
	t.Fatalf("undisturbed stream has no result frame:\n%s", stream)
}

// firstDiff names the first frame at which two differing streams part.
func firstDiff(got, want []byte) string {
	g := append(strings.Split(string(got), "\n\n"), "(end of stream)")
	w := append(strings.Split(string(want), "\n\n"), "(end of stream)")
	i := 0
	for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("frame %d:\n--- got\n%s\n--- want\n%s", i, g[i], w[i])
}

// TestFailoverAtEveryFrame kills the session's owning replica after each
// frame k it could write, from k = 0 (down before the client attaches) to
// the last frame before its result. The router must splice the replay on
// the survivor so that, without its ": failover" comments, the client's
// stream is byte-identical to the undisturbed one, count exactly one
// failover and no error. With every replica down the stream answers 503.
func TestFailoverAtEveryFrame(t *testing.T) {
	f := newTestFleet(t)
	owner, _ := f.owner(t)
	resp, want := f.stream(t)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undisturbed stream: status %d\n%s", resp.StatusCode, want)
	}
	checkUndisturbed(t, want)
	n := owner.kill.written()
	if n < 3 {
		t.Fatalf("owner wrote %d frames, want at least traceparent, open and result", n)
	}

	for k := 0; k < n; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			f := newTestFleet(t)
			owner, survivor := f.owner(t)
			owner.kill.arm(k)
			resp, got := f.stream(t)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200\n%s", resp.StatusCode, got)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("Content-Type %q, want text/event-stream", ct)
			}
			if got := failoverComment.ReplaceAll(got, nil); !bytes.Equal(got, want) {
				t.Fatalf("spliced stream differs from the undisturbed one at %s", firstDiff(got, want))
			}
			snap := f.rt.m.Snapshot()
			if v := snap[mSessionsFailovers]; v != 1 {
				t.Errorf("%s = %v, want 1", mSessionsFailovers, v)
			}
			if v := snap[mErrors]; v != 0 {
				t.Errorf("%s = %v, want 0", mErrors, v)
			}
			if v := survivor.m.Snapshot()["serve.errors.stream"]; v != 0 {
				t.Errorf("survivor serve.errors.stream = %v, want 0", v)
			}
		})
	}

	t.Run("all down", func(t *testing.T) {
		f := newTestFleet(t)
		for _, r := range f.replicas {
			r.kill.arm(0)
		}
		resp, body := f.stream(t)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503\n%s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
	})
}

// mustCreate is createSession on the test's goroutine.
func mustCreate(t *testing.T, base string) (*http.Response, []byte, string) {
	t.Helper()
	resp, body, stream, err := createSession(base)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body, stream
}

// get fetches url and reads its body to the end.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// healthSessions reads the router's resident session count.
func healthSessions(t *testing.T, base string) int {
	t.Helper()
	_, body := get(t, base+"/healthz")
	var h struct {
		Sessions int `json:"sessions"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	return h.Sessions
}

// TestSessionTableBounded pins the router's session cap: the backends'
// default session capacity together. Sessions created and never attached
// are evicted oldest first, so cap+1 creates leave cap resident, the
// first one's stream is gone and the newest still streams its result.
// With every resident session streaming, a create answers 429.
func TestSessionTableBounded(t *testing.T) {
	f := newTestFleet(t)
	limit := f.rt.maxSessions
	if limit != 2*serve.DefaultMaxSessions {
		t.Fatalf("router caps %d sessions over 2 replicas, want %d", limit, 2*serve.DefaultMaxSessions)
	}
	var streams []string
	for i := 0; i <= limit; i++ {
		resp, _, stream := mustCreate(t, f.url)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d, want 201", i, resp.StatusCode)
		}
		streams = append(streams, stream)
	}
	if n := healthSessions(t, f.url); n != limit {
		t.Fatalf("/healthz reports %d sessions after %d creates, want %d", n, limit+1, limit)
	}
	if v := f.rt.m.Snapshot()[mSessionsEvicted]; v != 1 {
		t.Errorf("%s = %v, want 1", mSessionsEvicted, v)
	}
	if resp, body := get(t, f.url+streams[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session's stream: status %d, want 404\n%s", resp.StatusCode, body)
	}
	resp, body := get(t, f.url+streams[limit])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newest session's stream: status %d, want 200\n%s", resp.StatusCode, body)
	}
	checkUndisturbed(t, body)

	t.Run("all streaming", func(t *testing.T) {
		f := newTestFleet(t)
		f.rt.maxSessions = 1
		owner, _ := f.owner(t)
		arrived, release := owner.kill.holdCreates(t)
		_, _, stream := mustCreate(t, f.url)
		done := make(chan int, 1)
		go func() {
			resp, err := http.Get(f.url + stream)
			if err != nil {
				t.Error(err)
				done <- 0
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		select {
		case <-arrived:
		case code := <-done:
			t.Fatalf("stream answered %d before reaching the owner", code)
		}
		resp, _, _ := mustCreate(t, f.url)
		release()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("create with the only session streaming: status %d, Retry-After %q; want 429 with Retry-After",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if code := <-done; code != http.StatusOK {
			t.Errorf("streaming session: status %d, want 200", code)
		}
	})
}

// TestDrainDuringFailover drains the router across a session's
// failover. The drain starts while the stream is parked at the owner's
// session create; the owner then dies after 4 frames, and the replay
// parks at the survivor's. The drain waits for the stream throughout,
// which completes byte-identical to the undisturbed one but for its
// ": failover" comment, while new sessions answer 503 and /healthz
// reports draining.
func TestDrainDuringFailover(t *testing.T) {
	_, want := newTestFleet(t).stream(t)

	f := newTestFleet(t)
	owner, survivor := f.owner(t)
	owner.kill.arm(4)
	atOwner, releaseOwner := owner.kill.holdCreates(t)
	atSurvivor, releaseSurvivor := survivor.kill.holdCreates(t)
	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, body, err := openStream(f.url)
		done <- result{resp, body, err}
	}()
	reach := func(held <-chan struct{}, where string) {
		t.Helper()
		select {
		case <-held:
		case res := <-done:
			t.Fatalf("stream ended before reaching the %s: %v\n%s", where, res.err, res.body)
		}
	}
	waiting := func() {
		t.Helper()
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := f.rt.drain(canceled); !errors.Is(err, context.Canceled) {
			t.Fatalf("drain with a stream in flight returned %v, want it to wait (context.Canceled)", err)
		}
	}

	reach(atOwner, "owner")
	waiting()
	releaseOwner()
	reach(atSurvivor, "survivor")
	waiting()
	if resp, body, _ := mustCreate(t, f.url); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("create while draining: status %d, Retry-After %q; want 503 with Retry-After\n%s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if resp, body := get(t, f.url+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Errorf("/healthz while draining: status %d, want 503 draining\n%s", resp.StatusCode, body)
	}

	releaseSurvivor()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d, want 200\n%s", res.resp.StatusCode, res.body)
	}
	if !failoverComment.Match(res.body) {
		t.Fatalf("stream has no failover comment:\n%s", res.body)
	}
	if got := failoverComment.ReplaceAll(res.body, nil); !bytes.Equal(got, want) {
		t.Fatalf("stream drained across a failover differs from the undisturbed one at %s", firstDiff(got, want))
	}
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := f.rt.drain(ctx); err != nil {
		t.Fatalf("drain after the stream ended: %v", err)
	}
}

// waitAddr polls addrFile until run has published its bound address (the
// newline ends the write), failing fast if run returns first.
func waitAddr(t *testing.T, addrFile string, done <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			return strings.TrimSpace(string(b))
		}
		if time.Now().After(deadline) {
			t.Fatal("run never published its address")
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// postEavesdrop posts sessionBody to base's /v1/eavesdrop and returns the
// reply.
func postEavesdrop(t *testing.T, base string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/eavesdrop", "application/json", strings.NewReader(sessionBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/v1/eavesdrop: status %d\n%s", base, resp.StatusCode, body)
	}
	return resp, body
}

// TestRunRoutesAndDrains starts the router's run over two replicas: once
// its probes report both up, a routed one-shot eavesdrop returns the same
// bytes the owning replica returns directly, and cancelling ctx, as
// SIGTERM does, drains run to nil.
func TestRunRoutesAndDrains(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.NewServer(serve.Options{Shards: 1}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-backends", strings.Join(urls, ","), "-probe", "100ms"})
	}()
	base := "http://" + waitAddr(t, addrFile, done)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Up int `json:"up"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && h.Up == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router /healthz reports %d replicas up, want 2 (decode error %v)", h.Up, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, routed := postEavesdrop(t, base)
	owner := resp.Header.Get(backendHeader)
	if owner != urls[0] && owner != urls[1] {
		t.Fatalf("routed reply names backend %q, want one of %v", owner, urls)
	}
	if _, direct := postEavesdrop(t, owner); !bytes.Equal(routed, direct) {
		t.Fatalf("routed reply differs from the owner's direct reply:\n--- routed\n%s\n--- direct\n%s", routed, direct)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v, want a clean drain", err)
	}
}
