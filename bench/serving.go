package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuleak"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
)

type serveKind int

const (
	stream serveKind = iota
	hostile
)

// opHeader carries the op id to a traced run's timing middleware.
const opHeader = "X-Bench-Op"

// serveBench drives an in-process serve.Server over loopback HTTP.
type serveBench struct {
	name   string
	kind   serveKind
	seed   int64
	mix    []serve.EavesdropRequest
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer
	// before is /metrics when set-up ended; delta its change over the
	// timed phase.
	before, delta map[string]float64

	mu sync.Mutex
	// handler is the server-side interval of each op's main request
	// (traced runs only).
	handler map[int]span
	// overhead is, per replayed serve-stream op, handler time minus the
	// time of the same eavesdrop through the library (traced runs only).
	overhead []float64
}

// mixFor is a workload's config mix. serve-stream has 12 configs: 3
// devices x 2 apps x 2 keyboards. serve-hostile has 4 (2
// devices x 2 apps) that fuse the kgsl and proccount channels under the
// mild fault profile, a quantize defense and practical typing. (Under the
// moderate profile about one request in a thousand exhausts its
// reservation retries and fails with 503; a benchmark op must not fail.)
func mixFor(kind serveKind) []serve.EavesdropRequest {
	var mix []serve.EavesdropRequest
	if kind == hostile {
		for _, d := range []string{"OnePlus 8 Pro", "Google Pixel 5"} {
			for _, a := range []string{"Chase", "Amex"} {
				mix = append(mix, serve.EavesdropRequest{
					Device: d, App: a, Keyboard: "gboard", Practical: true,
					Channels:     []string{"kgsl", "proccount"},
					FaultProfile: "mild", Defense: "quantize", DefenseStrength: 0.25,
				})
			}
		}
		return mix
	}
	for _, d := range []string{"OnePlus 8 Pro", "Google Pixel 5", "Samsung Galaxy S21"} {
		for _, a := range []string{"Chase", "Amex"} {
			for _, k := range []string{"gboard", "swift"} {
				mix = append(mix, serve.EavesdropRequest{Device: d, App: a, Keyboard: k})
			}
		}
	}
	return mix
}

// setupServe starts a server with the gpuleakd defaults (4 shards, 2
// workers + 8 queued per shard, BatchMax 16, BatchWindow 8 ms), trains
// every model of the mix through POST /v1/train, and warms the path with
// two untimed ops per config.
func setupServe(kind serveKind) func(context.Context, string, int64, *tracer) (bench, error) {
	return func(ctx context.Context, name string, seed int64, tr *tracer) (bench, error) {
		b := &serveBench{name: name, kind: kind, seed: seed, mix: mixFor(kind), tr: tr, handler: map[int]span{}}
		b.srv = serve.NewServer(serve.Options{BatchMax: 16, BatchWindow: 8 * sim.Millisecond, RequestTimeout: 2 * time.Minute})
		var h http.Handler = b.srv
		if tr != nil {
			h = b.timing(b.srv)
		}
		b.ts = httptest.NewServer(h)
		b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
		if err := b.warm(ctx); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

func (b *serveBench) warm(ctx context.Context) error {
	for _, req := range b.mix {
		chans := req.Channels
		if len(chans) == 0 {
			chans = []string{""}
		}
		for _, ch := range chans {
			body, err := json.Marshal(serve.TrainRequest{Device: req.Device, App: req.App, Keyboard: req.Keyboard, Channel: ch})
			if err != nil {
				return err
			}
			if err := b.post(ctx, -1, "/v1/train", body, http.StatusOK, &serve.TrainResponse{}); err != nil {
				return fmt.Errorf("training: %w", err)
			}
		}
	}
	for i := -2 * len(b.mix); i < 0; i++ {
		var s sample
		if b.do(ctx, i, &s); s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	var err error
	b.before, err = b.scrape(ctx)
	return err
}

// request is op i's eavesdrop request: a config of the mix with a
// generated credential and victim seed.
func (b *serveBench) request(i int) serve.EavesdropRequest {
	in := newInput(b.seed, b.name, i, len(b.mix))
	req := b.mix[in.pick]
	req.Text, req.Seed = in.text, in.seed
	return req
}

func (b *serveBench) do(ctx context.Context, i int, s *sample) {
	body, err := json.Marshal(b.request(i))
	if err != nil {
		s.err = err
		return
	}
	if b.kind == stream {
		s.res, s.err = b.stream(ctx, i, body, s)
		return
	}
	s.sent = time.Now()
	var resp serve.EavesdropResponse
	if s.err = b.post(ctx, i, "/v1/eavesdrop", body, http.StatusOK, &resp); s.err == nil {
		s.res = fromResponse(resp)
	}
}

func (b *serveBench) post(ctx context.Context, i int, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(i))
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("POST %s: reading the body: %w", path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("POST %s: decoding the body: %w", path, err)
	}
	return nil
}

// stream creates a session, attaches its SSE stream and reads it to the
// closing result frame.
func (b *serveBench) stream(ctx context.Context, i int, body []byte, s *sample) (result, error) {
	var sr serve.SessionResponse
	if err := b.post(ctx, i, "/v1/sessions", body, http.StatusCreated, &sr); err != nil {
		return result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+sr.Stream, nil)
	if err != nil {
		return result{}, err
	}
	req.Header.Set(opHeader, strconv.Itoa(i))
	s.sent = time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return result{}, fmt.Errorf("GET %s: %w", sr.Stream, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best effort: the status already fails the op
		return result{}, fmt.Errorf("GET %s: status %d: %s", sr.Stream, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return readStream(resp.Body, s)
}

// readStream replays a session's frames the way a live client would —
// append on "key", truncate to Keys on "retract" — and returns the
// closing result, which must agree with the replayed text. s.first is
// when the first key frame arrived.
func readStream(r io.Reader, s *sample) (result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var text []rune
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		s.frames++
		switch event {
		case "key", "retract":
			var ev serve.StreamEventData
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return result{}, fmt.Errorf("decoding a %s frame: %w", event, err)
			}
			if event == "key" {
				if s.first.IsZero() {
					s.first = time.Now()
				}
				text = append(text, []rune(ev.Key)...)
			}
			if ev.Keys > len(text) {
				return result{}, fmt.Errorf("a %s frame claims %d keys, the replay holds %d", event, ev.Keys, len(text))
			}
			text = text[:ev.Keys]
		case "result":
			var resp serve.EavesdropResponse
			if err := json.Unmarshal([]byte(data), &resp); err != nil {
				return result{}, fmt.Errorf("decoding the result frame: %w", err)
			}
			if string(text) != resp.Text {
				return result{}, fmt.Errorf("frame replay %q differs from the result text %q", string(text), resp.Text)
			}
			return fromResponse(resp), nil
		case "error":
			return result{}, fmt.Errorf("stream error frame: %s", data)
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("reading the stream: %w", err)
	}
	return result{}, fmt.Errorf("the stream ended without a result frame")
}

// timing wraps the server to record the interval of each timed op's
// main request: the one-shot POST, or the stream GET.
func (b *serveBench) timing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		i, err := strconv.Atoi(r.Header.Get(opHeader))
		main := r.URL.Path == "/v1/eavesdrop" || strings.HasSuffix(r.URL.Path, "/stream")
		if err != nil || i < 0 || !main || !b.tr.enabled() {
			return
		}
		b.mu.Lock()
		b.handler[i] = span{name: "serve.handler", parent: "op", op: i, start: start, end: end}
		b.mu.Unlock()
	})
}

// scrape reads the server's public /metrics counters.
func (b *serveBench) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metrics: decoding: %w", err)
	}
	return m, nil
}

// check holds the timed phase valid — no registry miss or eviction, so
// the warm-up covered the mix — and replays every 50th serve-stream op
// through the library path with the server's own model, requiring the
// served result.
func (b *serveBench) check(ctx context.Context, samples []sample) error {
	after, err := b.scrape(ctx)
	if err != nil {
		return err
	}
	b.delta = map[string]float64{}
	for k, v := range after {
		b.delta[k] = v - b.before[k]
	}
	b.ts.Close() // waits for every handler, so the traced intervals are final
	for _, k := range []string{"registry.misses", "registry.evictions"} {
		if d := b.delta[k]; d > 0 {
			return fmt.Errorf("invalid run: %s rose by %g during the timed phase; the warm-up did not cover the config mix", k, d)
		}
	}
	if b.kind == hostile {
		return nil
	}
	for i := 0; i < len(samples); i += replayEvery {
		if samples[i].err != nil {
			continue
		}
		scen, err := serve.ResolveScenario(b.request(i))
		if err != nil {
			return err
		}
		m, err := b.srv.Registry().Lookup(serve.TrainConfig(scen.Cfg))
		if err != nil {
			return fmt.Errorf("replaying op %d: %w", i, err)
		}
		want, lib, err := b.replay(ctx, m, scen)
		if err != nil {
			return fmt.Errorf("replaying op %d: %w", i, err)
		}
		if got := samples[i].res; string(got.canonical()) != string(want.canonical()) {
			return fmt.Errorf("op %d: served and library results differ:\n  %s\n  %s", i, got.canonical(), want.canonical())
		}
		if h, ok := b.handler[i]; ok {
			b.overhead = append(b.overhead, ms(h.end.Sub(h.start)-lib))
		}
	}
	return nil
}

// replay runs one eavesdrop through the library path. A traced run times
// it too, as the fastest of three runs: a single isolated op varies by
// more than the serving overhead it is compared to.
func (b *serveBench) replay(ctx context.Context, m *gpuleak.Model, scen serve.Scenario) (result, time.Duration, error) {
	runs := 1
	if b.tr.enabled() {
		runs = 3
	}
	var res result
	fastest := time.Duration(math.MaxInt64)
	for k := 0; k < runs; k++ {
		start := time.Now()
		r, err := eavesdropLib(ctx, m, scen)
		if err != nil {
			return result{}, 0, err
		}
		fastest = min(fastest, time.Since(start))
		res = r
	}
	return res, fastest, nil
}

func (b *serveBench) layers(p phase, m map[string]float64) {
	samples := p.samples
	ops, d := float64(len(samples)), b.delta
	m["serve.admitted_per_op"] = d["serve.admitted"] / ops
	m["serve.rejected_per_op"] = d["serve.rejected"] / ops
	m["serve.queue_timeouts_per_op"] = d["serve.queue_timeouts"] / ops
	if lookups := d["registry.hits"] + d["registry.misses"]; lookups > 0 {
		m["registry.hit_rate"] = d["registry.hits"] / lookups
	}
	m["batch.jobs_per_op"] = d["serve.batch.jobs"] / ops
	m["batch.flushes_per_op"] = d["serve.batch.flushes"] / ops
	if f := d["serve.batch.flushes"]; f > 0 {
		m["batch.occupancy_mean"] = d["serve.batch.jobs"] / f
	}
	// With batching on, every classification goes through the batcher,
	// so its jobs are the classify calls.
	m["classify.calls_per_op"] = m["batch.jobs_per_op"]

	var handler, client, create, first []float64
	frames := 0
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		b.tr.add(span{name: "client.queue", parent: "op", op: i, tid: s.worker, start: s.due, end: s.start})
		b.tr.add(span{name: "http.request", parent: "op", op: i, tid: s.worker, start: s.sent, end: s.done})
		if b.kind == stream {
			b.tr.add(span{name: "sse.create", parent: "op", op: i, tid: s.worker, start: s.start, end: s.sent})
			create = append(create, ms(s.sent.Sub(s.start)))
			if !s.first.IsZero() {
				first = append(first, ms(s.first.Sub(s.sent)))
			}
			frames += s.frames
		}
		h, ok := b.handler[i]
		if !ok {
			continue
		}
		h.tid = s.worker
		b.tr.add(h)
		handler = append(handler, ms(h.end.Sub(h.start)))
		client = append(client, ms(s.done.Sub(s.sent)-h.end.Sub(h.start)))
	}
	for _, xs := range [][]float64{handler, client, create, first, b.overhead} {
		sort.Float64s(xs)
	}
	m["serve.handler_ms_p50"] = percentile(handler, 50)
	m["serve.handler_ms_p99"] = percentile(handler, 99)
	m["http.client_ms_p50"] = percentile(client, 50)
	m["serve.overhead_ms_p50"] = percentile(b.overhead, 50)
	if b.kind == stream {
		m["sse.create_ms_p50"] = percentile(create, 50)
		m["sse.first_frame_ms_p50"] = percentile(first, 50)
		m["sse.frames_per_session"] = float64(frames) / ops
	}
}

func (b *serveBench) close() {
	b.ts.Close()
	// Nothing is in flight once the listener has drained, so the
	// shutdown returns at once.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	b.srv.Close()
	b.client.CloseIdleConnections()
}
