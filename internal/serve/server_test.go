package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/victim"
)

// blockedServer builds a server whose trainings park on the returned
// release channel, so tests can hold requests in flight deterministically.
func blockedServer(t *testing.T, opts Options) (*Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s := NewServer(opts)
	s.reg = NewRegistry(s.opts.Shards, s.opts.CachePerShard,
		func(ctx context.Context, cfg victim.Config, _ string) (*attack.Model, error) {
			select {
			case <-release:
				return &attack.Model{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, s.m)
	return s, release
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// waitCounter polls a metrics counter until it reaches want; these
// transitions complete in microseconds, the deadline is pure paranoia.
func waitCounter(t *testing.T, m *obs.Metrics, key string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m.Snapshot()[key] >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v (snapshot %v)", key, want, m.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerBackpressure pins the overload contract: with 1 worker and 1
// queue slot on the only shard, a third concurrent request is refused
// with 429 + Retry-After immediately — it neither queues unboundedly nor
// hangs.
func TestServerBackpressure(t *testing.T) {
	s, release := blockedServer(t, Options{
		Shards: 1, WorkersPerShard: 1, QueuePerShard: 1,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer close(release)

	// Two requests for the same configuration: one executing (parked in
	// the blocked training), one admitted and waiting for the run slot.
	results := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/train", `{}`)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	waitCounter(t, s.m, "serve.admitted", 2)

	// The shard's admit capacity (workers+queue = 2) is now exhausted.
	resp := postJSON(t, ts.URL+"/v1/train", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 reply missing Retry-After")
	}
	er := decodeBody[ErrorResponse](t, resp)
	if !strings.Contains(er.Error, "queue full") {
		t.Fatalf("429 body %q does not name the full queue", er.Error)
	}
	if s.m.Snapshot()["serve.rejected"] != 1 {
		t.Fatalf("serve.rejected = %v, want 1", s.m.Snapshot()["serve.rejected"])
	}

	// Releasing the training drains both held requests successfully: the
	// queue rejected the excess, not the admitted work.
	release <- struct{}{}
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("held request finished with %d, want 200", code)
		}
	}
}

// TestShedLoadIsNotAnError pins the backpressure accounting: a one-shot
// refused by a full shard queue and a session refused by a session table
// whose every session is streaming both answer 429 and count in
// serve.rejected, and in neither serve.errors nor an endpoint's error
// counter.
func TestShedLoadIsNotAnError(t *testing.T) {
	s, release := blockedServer(t, Options{
		Shards: 1, WorkersPerShard: 1, QueuePerShard: 1, MaxSessions: 2,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Two streaming sessions fill the session table and the shard: one
	// runs (parked in the blocked training), one waits for the run slot.
	done := make(chan int, 2)
	for _, body := range []string{`{"text":"one"}`, `{"text":"two"}`} {
		sr := createSession(t, ts.URL, body)
		go func() {
			resp := doReq(t, http.MethodGet, ts.URL+sr.Stream)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	waitCounter(t, s.m, mAdmitted, 2)
	for _, path := range []string{"/v1/eavesdrop", "/v1/sessions"} {
		resp := postJSON(t, ts.URL+path, `{"text":"three"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("POST %s with the shard and the session table full: status %d, want 429", path, resp.StatusCode)
		}
	}
	snap := s.m.Snapshot()
	for metric, want := range map[string]float64{
		mRejected: 2, mErrors: 0, mErrorsEavesdrop: 0, mErrorsSession: 0,
	} {
		if snap[metric] != want {
			t.Errorf("%s = %v, want %v", metric, snap[metric], want)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("parked stream finished with %d, want 200", code)
		}
	}
}

// TestServerQueueWaitHonorsContext pins that an admitted request waiting
// for a run slot gives up when its context dies instead of hanging.
func TestServerQueueWaitHonorsContext(t *testing.T) {
	s := NewServer(Options{Shards: 1, WorkersPerShard: 1, QueuePerShard: 4})

	hold := make(chan struct{})
	running := make(chan struct{})
	go s.do(context.Background(), 0, func(context.Context) error { //nolint:errcheck
		close(running)
		<-hold
		return nil
	})
	<-running
	defer close(hold)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.do(ctx, 0, func(context.Context) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request with dead context: %v, want context.Canceled", err)
	}
	if s.m.Snapshot()["serve.queue_timeouts"] != 1 {
		t.Fatalf("serve.queue_timeouts = %v, want 1", s.m.Snapshot()["serve.queue_timeouts"])
	}
}

// TestServerGracefulShutdown pins the drain contract: Shutdown stops
// admission (new requests get 503, healthz flips to draining) and blocks
// until the in-flight run completes — which then still answers 200.
func TestServerGracefulShutdown(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/train", `{}`)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	waitCounter(t, s.m, "serve.admitted", 1)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, draining := s.gate.state(); draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/train", `{}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply missing Retry-After")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}
	if h := decodeBody[HealthResponse](t, hresp); h.Status != "draining" {
		t.Fatalf("healthz status %q, want %q", h.Status, "draining")
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight run drained: %v", err)
	default:
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestServerShutdownDeadline pins that Shutdown gives up when its context
// expires with work still in flight.
func TestServerShutdownDeadline(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer close(release)

	go func() {
		resp := postJSON(t, ts.URL+"/v1/train", `{}`)
		resp.Body.Close()
	}()
	waitCounter(t, s.m, "serve.admitted", 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown with dead context: %v, want context.Canceled", err)
	}
}

// TestServerErrorTaxonomy pins the HTTP status mapping of the stable
// error sentinels.
func TestServerErrorTaxonomy(t *testing.T) {
	s := NewServer(Options{Shards: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"empty text", "/v1/eavesdrop", `{}`, http.StatusBadRequest},
		{"unknown device", "/v1/eavesdrop", `{"text":"x","device":"Nokia 3310"}`, http.StatusBadRequest},
		{"unknown keyboard", "/v1/eavesdrop", `{"text":"x","keyboard":"morse"}`, http.StatusBadRequest},
		{"bad volunteer", "/v1/eavesdrop", `{"text":"x","volunteer":9}`, http.StatusBadRequest},
		{"malformed body", "/v1/eavesdrop", `{"text":`, http.StatusBadRequest},
		{"unknown experiment", "/v1/experiment", `{"id":"fig99"}`, http.StatusNotFound},
		{"empty experiment", "/v1/experiment", `{}`, http.StatusBadRequest},
		{"pretrained only, cold registry", "/v1/eavesdrop",
			`{"text":"x","pretrained_only":true}`, http.StatusPreconditionFailed},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		er := decodeBody[ErrorResponse](t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, er.Error, tc.want)
		}
		if er.Schema != Schema || er.Status != resp.StatusCode {
			t.Errorf("%s: error body %+v inconsistent with reply", tc.name, er)
		}
	}
}

// TestServerHealthzAndMetrics pins the observability endpoints: healthz
// reports registry statistics, /metrics is valid JSON carrying the
// serving gauges.
func TestServerHealthzAndMetrics(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 2})
	close(release) // trainings complete immediately
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/train", `{}`)
	if tr := decodeBody[TrainResponse](t, resp); tr.Cached {
		t.Fatal("first training reported cached=true")
	}
	resp = postJSON(t, ts.URL+"/v1/train", `{}`)
	if tr := decodeBody[TrainResponse](t, resp); !tr.Cached {
		t.Fatal("second training of the same configuration not cached")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[HealthResponse](t, hresp)
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %q, want 200 ok", hresp.StatusCode, h.Status)
	}
	if h.Models != 1 || h.Training != 0 || h.Shards != 2 {
		t.Fatalf("healthz stats %+v, want 1 model, 0 training, 2 shards", h)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[map[string]float64](t, mresp)
	for _, key := range []string{
		"registry.models_resident", "registry.training",
		"registry.evictions", "serve.inflight", "serve.trains",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/metrics missing %s", key)
		}
	}
	if snap["registry.models_resident"] != 1 {
		t.Errorf("registry.models_resident = %v, want 1", snap["registry.models_resident"])
	}
}

// TestTrainCountsOneLookup pins the registry accounting of POST
// /v1/train: one lookup per request, a miss that trains and then a hit
// that reports cached.
func TestTrainCountsOneLookup(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1})
	close(release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i, want := range []struct {
		cached                bool
		misses, hits, trained float64
	}{
		{false, 1, 0, 1},
		{true, 1, 1, 1},
	} {
		tr := decodeBody[TrainResponse](t, postJSON(t, ts.URL+"/v1/train", `{}`))
		snap := s.m.Snapshot()
		if tr.Cached != want.cached || snap[mRegistryMisses] != want.misses ||
			snap[mRegistryHits] != want.hits || snap[mRegistryTrained] != want.trained {
			t.Fatalf("training %d: cached %v, misses %v, hits %v, trained %v; want %+v", i+1,
				tr.Cached, snap[mRegistryMisses], snap[mRegistryHits], snap[mRegistryTrained], want)
		}
	}
}

// TestEvictionsPerServer pins registry.evictions to the server's own
// registry: another server in the process evicting leaves it at 0.
func TestEvictionsPerServer(t *testing.T) {
	evictions := func(url string) float64 {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		snap := decodeBody[map[string]float64](t, resp)
		v, ok := snap["registry.evictions"]
		if !ok {
			t.Fatal("/metrics missing registry.evictions")
		}
		return v
	}
	var urls []string
	for range 2 {
		s, release := blockedServer(t, Options{Shards: 1, CachePerShard: 1})
		close(release)
		ts := httptest.NewServer(s)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	for _, body := range []string{`{}`, `{"app":"Amex"}`} {
		postJSON(t, urls[0]+"/v1/train", body).Body.Close()
	}
	postJSON(t, urls[1]+"/v1/train", `{}`).Body.Close()
	if got := evictions(urls[0]); got != 1 {
		t.Errorf("the evicting server reads registry.evictions %v, want 1", got)
	}
	if got := evictions(urls[1]); got != 0 {
		t.Errorf("a server that never evicted reads registry.evictions %v, want 0", got)
	}
}

// TestMetricsContentNegotiation pins both renderings of /metrics over
// one registry state: the default JSON snapshot (explicit Content-Type,
// cumulative histogram bucket keys in the flat map) and the Prometheus
// text exposition behind ?format=prom (counter/gauge/histogram families
// with the trace-id exemplar on the bucket holding the observation).
// Any other format is a 400.
func TestMetricsContentNegotiation(t *testing.T) {
	s, release := blockedServer(t, Options{Shards: 1})
	close(release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/train", `{}`)
	decodeBody[TrainResponse](t, resp)
	const trace = "0123456789abcdef0123456789abcdef"
	s.m.ObserveExemplar(mLatencyEavesdrop, 12, trace) // lands in the le=25 bucket

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	snap := decodeBody[map[string]float64](t, mresp)
	if snap["serve.trains"] != 1 {
		t.Errorf("serve.trains = %v, want 1", snap["serve.trains"])
	}
	if snap["serve.latency_ms.eavesdrop_bucket_le_10"] != 0 ||
		snap["serve.latency_ms.eavesdrop_bucket_le_25"] != 1 {
		t.Errorf("bucket keys wrong: le_10=%v le_25=%v, want 0 and 1 (cumulative)",
			snap["serve.latency_ms.eavesdrop_bucket_le_10"],
			snap["serve.latency_ms.eavesdrop_bucket_le_25"])
	}

	presp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	if ct := presp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prom Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	raw, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE gpuleak_serve_trains counter\ngpuleak_serve_trains 1\n",
		"# TYPE gpuleak_serve_inflight gauge\n",
		"# TYPE gpuleak_serve_latency_ms_eavesdrop histogram\n",
		"gpuleak_serve_latency_ms_eavesdrop_bucket{le=\"25\"} 1 # {trace_id=\"" + trace + "\"} 12\n",
		"gpuleak_serve_latency_ms_eavesdrop_bucket{le=\"+Inf\"} 1\n",
		"gpuleak_serve_latency_ms_eavesdrop_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom rendering missing %q", want)
		}
	}

	bresp, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	if er := decodeBody[ErrorResponse](t, bresp); bresp.StatusCode != http.StatusBadRequest || er.Status != http.StatusBadRequest {
		t.Errorf("unknown format: status %d body %+v, want 400", bresp.StatusCode, er)
	}
}
