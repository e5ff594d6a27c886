package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/ring"
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
// holdCreates, it also parks every session create until released. While
// sick, its /healthz answers 503.
type frameKiller struct {
	h http.Handler

	mu      sync.Mutex
	k       int
	frames  int
	sick    bool
	hold    chan struct{}
	arrived chan struct{}
	hungUp  chan struct{}
}

// holdCreates parks the replica's session creates until release is
// called: each one is announced on arrived, and one whose request
// context ends while parked is announced on hungUp and answers nothing.
// The test's cleanup releases them too, so a failing test never leaves a
// request parked.
func (fk *frameKiller) holdCreates(t *testing.T) (arrived, hungUp <-chan struct{}, release func()) {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	hold := make(chan struct{})
	fk.hold, fk.arrived, fk.hungUp = hold, make(chan struct{}, 1), make(chan struct{}, 1)
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return fk.arrived, fk.hungUp, release
}

// waitHeld blocks a session create while holdCreates is in force. It
// reports false when the create's context ended first. It reads the body
// before it parks, as a handler does: only then does the server watch
// the connection and end the context when the client hangs up.
func (fk *frameKiller) waitHeld(r *http.Request) bool {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/sessions" {
		return true
	}
	fk.mu.Lock()
	hold, arrived, hungUp := fk.hold, fk.arrived, fk.hungUp
	fk.mu.Unlock()
	if hold == nil {
		return true
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	select {
	case arrived <- struct{}{}:
	default:
	}
	select {
	case <-hold:
		return true
	case <-r.Context().Done():
		select {
		case hungUp <- struct{}{}:
		default:
		}
		return false
	}
}

func (fk *frameKiller) setSick(sick bool) {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	fk.sick = sick
}

func (fk *frameKiller) isSick() bool {
	fk.mu.Lock()
	defer fk.mu.Unlock()
	return fk.sick
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
	if r.URL.Path == "/healthz" && fk.isSick() {
		http.Error(w, "sick", http.StatusServiceUnavailable)
		return
	}
	if fk.waitHeld(r) {
		fk.h.ServeHTTP(killWriter{w, fk}, r)
	}
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

// probeTimeout bounds each test probe of a replica's /healthz.
const probeTimeout = 5 * time.Second

// replica is one in-process gpuleakd behind a frameKiller.
type replica struct {
	kill *frameKiller
	m    *obs.Metrics
}

// testFleet is two replicas and a router over them, every member up
// after one probe round (no probe loop runs; tests call Probe).
type testFleet struct {
	rt       *Router
	url      string // the router
	replicas map[string]*replica
}

func newTestFleet(t *testing.T) *testFleet {
	t.Helper()
	f := &testFleet{replicas: map[string]*replica{}}
	var urls []string
	for i := 0; i < 2; i++ {
		m := obs.NewMetrics()
		fk := &frameKiller{h: NewServer(Options{Shards: 1, Metrics: m}), k: -1}
		ts := httptest.NewServer(fk)
		t.Cleanup(ts.Close)
		f.replicas[ts.URL] = &replica{kill: fk, m: m}
		urls = append(urls, ts.URL)
	}
	f.rt = NewRouter(urls, 2, 1, 2)
	f.rt.Probe(probeTimeout)
	for _, u := range urls {
		if st := f.rt.ms.State(u); st != ring.StateUp {
			t.Fatalf("replica %s is %v after a probe round, want up", u, st)
		}
	}
	ts := httptest.NewServer(f.rt)
	t.Cleanup(ts.Close)
	f.url = ts.URL
	return f
}

// owner returns the replica the ring assigns the request body to, and
// the other one.
func (f *testFleet) owner(t *testing.T, body string) (owner, survivor *replica) {
	t.Helper()
	var req EavesdropRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := RoutingKey(req)
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

// createRouted registers sessionBody with the router at base, with the
// client's trace context. stream is the session's stream path, empty
// when the create does not answer 201.
func createRouted(base string) (resp *http.Response, body []byte, stream string, err error) {
	create, err := http.NewRequest(http.MethodPost, base+"/v1/sessions", strings.NewReader(sessionBody))
	if err != nil {
		return nil, nil, "", err
	}
	create.Header.Set(TraceparentHeader, clientTraceparent)
	resp, err = http.DefaultClient.Do(create)
	if err != nil {
		return nil, nil, "", err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return resp, body, "", err
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, nil, "", fmt.Errorf("session create: %w", err)
	}
	return resp, body, sr.Stream, nil
}

// openStream creates the session through the router at base, then
// attaches its stream and reads it to the end. A create that does not
// answer 201 is returned as the response.
func openStream(base string) (*http.Response, []byte, error) {
	resp, body, stream, err := createRouted(base)
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
		var res EavesdropResponse
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
	owner, _ := f.owner(t, sessionBody)
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
			owner, survivor := f.owner(t, sessionBody)
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
			if v := snap[mRouterErrors]; v != 0 {
				t.Errorf("%s = %v, want 0", mRouterErrors, v)
			}
			if v := survivor.m.Snapshot()[mErrorsStream]; v != 0 {
				t.Errorf("survivor %s = %v, want 0", mErrorsStream, v)
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

// mustCreate is createRouted on the test's goroutine.
func mustCreate(t *testing.T, base string) (*http.Response, []byte, string) {
	t.Helper()
	resp, body, stream, err := createRouted(base)
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
	limit := f.rt.sessions.cap
	if limit != 2*DefaultMaxSessions {
		t.Fatalf("router caps %d sessions over 2 replicas, want %d", limit, 2*DefaultMaxSessions)
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
	if v := f.rt.m.Snapshot()[mRouterSessionsEvicted]; v != 1 {
		t.Errorf("%s = %v, want 1", mRouterSessionsEvicted, v)
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
		f.rt.sessions.cap = 1
		owner, _ := f.owner(t, sessionBody)
		arrived, _, release := owner.kill.holdCreates(t)
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
		// Shed load, not an error.
		snap := f.rt.m.Snapshot()
		if snap[mRouterRejected] != 1 || snap[mRouterErrors] != 0 {
			t.Errorf("%s = %v and %s = %v, want 1 and 0",
				mRouterRejected, snap[mRouterRejected], mRouterErrors, snap[mRouterErrors])
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
	owner, survivor := f.owner(t, sessionBody)
	owner.kill.arm(4)
	atOwner, _, releaseOwner := owner.kill.holdCreates(t)
	atSurvivor, _, releaseSurvivor := survivor.kill.holdCreates(t)
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
		if err := f.rt.Shutdown(canceled); !errors.Is(err, context.Canceled) {
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
	if err := f.rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain after the stream ended: %v", err)
	}
}

// postEavesdrop posts body to base's /v1/eavesdrop and returns the
// reply.
func postEavesdrop(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/eavesdrop", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/v1/eavesdrop: status %d\n%s", base, resp.StatusCode, reply)
	}
	return resp, reply
}

// TestAttachWhileDrainingAnswers503 pins the attach order the router
// shares with Server: a stream the drain refuses leaves its session
// unattached. Both attaches of a session created before the drain answer
// 503 with Retry-After, never 409, and the session stays resident and
// unattached, so eviction can still reclaim its slot.
func TestAttachWhileDrainingAnswers503(t *testing.T) {
	f := newTestFleet(t)
	_, _, stream := mustCreate(t, f.url)
	if err := f.rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, body := get(t, f.url+stream)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("attach %d while draining: status %d, Retry-After %q; want 503 with Retry-After\n%s",
				i, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	if resident, streaming := f.rt.sessions.stats(); resident != 1 || streaming != 0 {
		t.Fatalf("after two refused attaches: %d sessions resident, %d streaming; want 1 and 0", resident, streaming)
	}
}

// hangUp sends req with a context it cancels once arrived fires, then
// drains the router: after Shutdown returns, the routed request has
// finished. The router must blame no replica for the hang-up.
func (f *testFleet) hangUp(t *testing.T, method, path, body string, arrived <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, f.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the hang-up matters
			resp.Body.Close()
		}
	}()
	select {
	case <-arrived:
	case <-sent:
		t.Fatal("the request finished before reaching the replica")
	}
	cancel()
	<-sent
	dctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := f.rt.Shutdown(dctx); err != nil {
		t.Fatalf("routed request still in flight after the client hung up: %v", err)
	}
	if v := f.rt.m.Snapshot()[mEvictions]; v != 0 {
		t.Errorf("%s = %v after a client hang-up, want 0", mEvictions, v)
	}
	for u := range f.replicas {
		if st := f.rt.ms.State(u); st != ring.StateUp {
			t.Errorf("replica %s is %v after a client hang-up, want up", u, st)
		}
	}
}

// TestClientHangupCancelsReplica pins that a routed request carries the
// client's context, so a replica stops working for a client that hung
// up. A one-shot's replica, which has read the body and waits on its
// request context, sees that context end; so does a session's backend
// create, parked at the owner while the client's stream attach is
// cancelled.
func TestClientHangupCancelsReplica(t *testing.T) {
	t.Run("one-shot", func(t *testing.T) {
		f := newTestFleet(t)
		arrived, ended := make(chan struct{}, 1), make(chan bool, 1)
		for _, r := range f.replicas {
			h := r.kill.h
			r.kill.h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/eavesdrop" {
					h.ServeHTTP(w, r)
					return
				}
				io.Copy(io.Discard, r.Body) //nolint:errcheck // the stub answers nothing
				arrived <- struct{}{}
				select {
				case <-r.Context().Done():
					ended <- true
				case <-time.After(10 * time.Second):
					ended <- false
				}
			})
		}
		f.hangUp(t, http.MethodPost, "/v1/eavesdrop", sessionBody, arrived)
		if !<-ended {
			t.Fatal("the replica's request context outlived the client's by 10 s")
		}
	})
	t.Run("session", func(t *testing.T) {
		f := newTestFleet(t)
		owner, _ := f.owner(t, sessionBody)
		arrived, hungUp, _ := owner.kill.holdCreates(t)
		_, _, stream := mustCreate(t, f.url)
		f.hangUp(t, http.MethodGet, stream, "", arrived)
		select {
		case <-hungUp:
		case <-time.After(10 * time.Second):
			t.Fatal("the owner's parked session create outlived the client's stream by 10 s")
		}
	})
}

// TestFlappingReplicaWarmReplication flaps a key's owner twice: its
// /healthz fails until two probe rounds take it out of the ring, then
// heals until one round readmits it. Each flap moves the key, and warm
// replication trains the key's model on its new owner. Once that
// training answered 200, the next routed one-shot for the key answers
// the undisturbed bytes from the key's current owner, as a registry hit
// there: registry.hits +1 and registry.misses +0. The proccount key
// checks that the warm training is for the key's own channel.
func TestFlappingReplicaWarmReplication(t *testing.T) {
	for ch, body := range map[string]string{
		"kgsl":      sessionBody,
		"proccount": `{"text":"hunter2","seed":7,"channel":"proccount"}`,
	} {
		t.Run(ch, func(t *testing.T) {
			f := newTestFleet(t)
			owner, _ := f.owner(t, body)
			_, want := postEavesdrop(t, f.url, body) // trains the key on its owner
			var ownerURL, survivorURL string
			for u, r := range f.replicas {
				if r == owner {
					ownerURL = u
				} else {
					survivorURL = u
				}
			}
			trains := 0.0
			settle := func(at string) {
				t.Helper()
				trains++
				waitCounter(t, f.rt.m, mWarmTrains, trains)
				m := f.replicas[at].m
				before := m.Snapshot()
				resp, got := postEavesdrop(t, f.url, body)
				if !bytes.Equal(got, want) {
					t.Fatalf("one-shot after the move differs from the undisturbed one:\n%s\nvs\n%s", got, want)
				}
				if b := resp.Header.Get(BackendHeader); b != at {
					t.Fatalf("one-shot served by %s, want the key's owner %s", b, at)
				}
				after := m.Snapshot()
				if hits, misses := after[mRegistryHits]-before[mRegistryHits], after[mRegistryMisses]-before[mRegistryMisses]; hits != 1 || misses != 0 {
					t.Fatalf("one-shot on %s: registry.hits +%v, registry.misses +%v; want +1 and +0", at, hits, misses)
				}
			}
			for flap := 0; flap < 2; flap++ {
				owner.kill.setSick(true)
				f.rt.Probe(probeTimeout)
				f.rt.Probe(probeTimeout)
				if st := f.rt.ms.State(ownerURL); st != ring.StateDown {
					t.Fatalf("flap %d: sick owner is %v after two probe rounds, want down", flap, st)
				}
				settle(survivorURL)
				owner.kill.setSick(false)
				f.rt.Probe(probeTimeout)
				settle(ownerURL)
			}
		})
	}
}

// TestRoutedTrainKeepsItsChannel pins that a routed /v1/train routes by
// the model it trains: a proccount training lands on the proccount key's
// owner, and warm replication remembers that key with its channel.
func TestRoutedTrainKeepsItsChannel(t *testing.T) {
	f := newTestFleet(t)
	key, err := RoutingKey(EavesdropRequest{Text: "warmup", Channel: "proccount"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.url+"/v1/train", "application/json", strings.NewReader(`{"channel":"proccount"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the header is the signal
	resp.Body.Close()
	owner, _ := f.rt.ms.Owner(key)
	if b := resp.Header.Get(BackendHeader); resp.StatusCode != http.StatusOK || b != owner {
		t.Fatalf("proccount training: status %d on %s, want 200 on the key's owner %s", resp.StatusCode, b, owner)
	}
	f.rt.mu.Lock()
	w := f.rt.warm[key]
	f.rt.mu.Unlock()
	if w == nil || w.train.Channel != "proccount" {
		t.Fatalf("warm entry for %s: %+v, want one that trains channel proccount", key, w)
	}
}
