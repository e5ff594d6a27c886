package gpuleak

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gpuleak/internal/obs"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
)

// sseFrame is one parsed Server-Sent-Events frame from a session stream.
type sseFrame struct {
	ID    uint64
	Event string
	Data  []byte
}

// streamSession creates a streaming session for body and consumes its SSE
// stream to completion, returning the parsed frames in order.
func streamSession(t *testing.T, url, body string) []sseFrame {
	t.Helper()
	resp, err := http.Post(url+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	var sr serve.SessionResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding session response: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions: status %d", resp.StatusCode)
	}

	stream, err := http.Get(url + "/v1/sessions/" + sr.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: status %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q, want text/event-stream", ct)
	}

	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ": "):
			// Comment frame (router failover notes); carries no data.
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID) //nolint:errcheck // malformed ids fail the monotonicity check below
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return frames
}

// replayStream reconstructs the inferred text from a stream's key/retract
// frames, the way a live client would: append on "key", truncate to Keys
// on "retract".
func replayStream(t *testing.T, frames []sseFrame) string {
	t.Helper()
	var text []rune
	for _, f := range frames {
		if f.Event != "key" && f.Event != "retract" {
			continue
		}
		var ev serve.StreamEventData
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatalf("decoding %s frame %s: %v", f.Event, f.Data, err)
		}
		if ev.Schema != serve.StreamSchema {
			t.Fatalf("event schema %q, want %q", ev.Schema, serve.StreamSchema)
		}
		if ev.Kind == "key" {
			text = append(text, []rune(ev.Key)...)
		}
		if len(text) < ev.Keys {
			t.Fatalf("event claims %d keys but replay holds %d", ev.Keys, len(text))
		}
		text = text[:ev.Keys]
	}
	return string(text)
}

// TestStreamedEavesdropMatchesOneShot pins the streaming determinism
// contract: a session's SSE verdict stream carries exactly the incremental
// output of the one-shot /v1/eavesdrop run for the same request, and its
// closing "result" frame is the compact form of the one-shot response —
// at parallelism 1 and at parallelism 8, where every concurrent stream's
// verdict sequence is byte-identical (only the session id in the "open"
// frame may differ).
func TestStreamedEavesdropMatchesOneShot(t *testing.T) {
	srv := serve.NewServer(serve.Options{Shards: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"text":"hunter2","seed":7}`

	oneShotRaw, oneShot := servedEavesdrop(t, ts.URL, body)
	var oneShotCompact bytes.Buffer
	if err := json.Compact(&oneShotCompact, oneShotRaw); err != nil {
		t.Fatal(err)
	}

	check := func(frames []sseFrame) {
		t.Helper()
		if len(frames) < 2 {
			t.Fatalf("stream produced %d frames, want at least open+result", len(frames))
		}
		for i, f := range frames {
			if f.ID != uint64(i+1) {
				t.Fatalf("frame %d has id %d, want ids numbered from 1", i, f.ID)
			}
		}
		if frames[0].Event != "open" {
			t.Fatalf("first frame event %q, want open", frames[0].Event)
		}
		last := frames[len(frames)-1]
		if last.Event != "result" {
			t.Fatalf("last frame event %q, want result", last.Event)
		}
		if !bytes.Equal(last.Data, oneShotCompact.Bytes()) {
			t.Fatalf("result frame differs from one-shot response:\n%s\nvs\n%s",
				last.Data, oneShotCompact.Bytes())
		}
		if got := replayStream(t, frames); got != oneShot.Text {
			t.Fatalf("replaying the verdict stream yields %q, one-shot text %q", got, oneShot.Text)
		}
	}

	// Parallelism 1.
	serial := streamSession(t, ts.URL, body)
	check(serial)

	// Parallelism 8: concurrent sessions over the same warm registry. The
	// verdict sequence after the open frame must match the serial stream
	// frame for frame, byte for byte.
	const parallelism = 8
	streams := make([][]sseFrame, parallelism)
	var wg sync.WaitGroup
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = streamSession(t, ts.URL, body)
		}(i)
	}
	wg.Wait()
	for i, frames := range streams {
		check(frames)
		if len(frames) != len(serial) {
			t.Fatalf("concurrent stream %d has %d frames, serial stream %d", i, len(frames), len(serial))
		}
		for j := 1; j < len(frames); j++ {
			if frames[j].ID != serial[j].ID || frames[j].Event != serial[j].Event ||
				!bytes.Equal(frames[j].Data, serial[j].Data) {
				t.Fatalf("concurrent stream %d frame %d differs from serial:\n%s %s\nvs\n%s %s",
					i, j, frames[j].Event, frames[j].Data, serial[j].Event, serial[j].Data)
			}
		}
	}
}

// TestBatchedServingMatchesUnbatched pins the micro-batcher's identity
// contract end to end through HTTP: a server coalescing classification
// into cross-request micro-batches answers byte-identically to one that
// classifies inline, for one-shot and streamed requests alike, on every
// single-channel request the batcher serves — the default KGSL channel
// and the proccount channel — under concurrency that actually exercises
// coalescing.
func TestBatchedServingMatchesUnbatched(t *testing.T) {
	plain := httptest.NewServer(serve.NewServer(serve.Options{Shards: 2}))
	defer plain.Close()
	batchedSrv := serve.NewServer(serve.Options{
		Shards:      2,
		BatchWindow: 8 * sim.Millisecond,
		BatchMax:    16,
	})
	batched := httptest.NewServer(batchedSrv)
	defer batchedSrv.Close()
	defer batched.Close()

	// batchJobs reads how many classifications the batcher has served.
	batchJobs := func() float64 {
		t.Helper()
		resp, err := http.Get(batched.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap["serve.batch.jobs"]
	}

	for _, body := range []string{
		`{"text":"letmein9","seed":11}`,
		`{"text":"letmein9","seed":11,"channel":"proccount"}`,
	} {
		jobs := batchJobs()
		wantRaw, _ := servedEavesdrop(t, plain.URL, body)
		wantFrames := streamSession(t, plain.URL, body)

		const parallelism = 8
		raws := make([][]byte, parallelism)
		streams := make([][]sseFrame, parallelism)
		var wg sync.WaitGroup
		for i := 0; i < parallelism; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				raws[i], _ = servedEavesdrop(t, batched.URL, body)
				streams[i] = streamSession(t, batched.URL, body)
			}(i)
		}
		wg.Wait()
		for i := 0; i < parallelism; i++ {
			if !bytes.Equal(raws[i], wantRaw) {
				t.Fatalf("%s: batched response %d differs from unbatched response:\n%s\nvs\n%s",
					body, i, raws[i], wantRaw)
			}
			if len(streams[i]) != len(wantFrames) {
				t.Fatalf("%s: batched stream %d has %d frames, unbatched stream %d",
					body, i, len(streams[i]), len(wantFrames))
			}
			for j := 1; j < len(wantFrames); j++ {
				if !bytes.Equal(streams[i][j].Data, wantFrames[j].Data) {
					t.Fatalf("%s: batched stream %d frame %d differs from unbatched:\n%s\nvs\n%s",
						body, i, j, streams[i][j].Data, wantFrames[j].Data)
				}
			}
		}
		// The requests must really have gone through the batcher, or the
		// comparison proves nothing about them.
		if batchJobs() == jobs {
			t.Fatalf("%s: the batched server classified nothing through its batcher", body)
		}
	}
}

// streamSessionTraced is streamSession with the trace plumbing exposed:
// the session is created with an explicit traceparent header (the same
// forwarding the router performs on every create and failover replay),
// and SSE comment lines — which carry the in-band trace announcement —
// are captured instead of dropped.
func streamSessionTraced(t *testing.T, url, body, traceparent string) ([]sseFrame, []string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sessions", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TraceparentHeader, traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	var sr serve.SessionResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding session response: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions: status %d", resp.StatusCode)
	}

	stream, err := http.Get(url + "/v1/sessions/" + sr.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: status %d", stream.StatusCode)
	}

	var frames []sseFrame
	var comments []string
	var cur sseFrame
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ": "):
			comments = append(comments, line)
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID) //nolint:errcheck // malformed ids fail frame checks in callers
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return frames, comments
}

// TestStreamTraceContinuity pins the cross-process trace contract on the
// streaming path: a session created with a forwarded traceparent (what
// the router sends on create AND on every failover replay) records its
// router hop, request span, queue admission, and the engine's verdict
// events all on the one trace's track; the stream announces that trace
// in-band before the open frame; and the per-trace JSONL export is
// byte-identical at TrainWorkers 1 and 8 and across a replay on a fresh
// replica — which is exactly why a failover splice keeps one trace id.
func TestStreamTraceContinuity(t *testing.T) {
	const seed = 7
	body := `{"text":"hunter2","seed":7}`
	tc := obs.NewTrace(seed)
	tp := tc.Traceparent()

	run := func(workers int) ([]byte, []string) {
		tr := obs.New()
		srv := serve.NewServer(serve.Options{Shards: 2, TrainWorkers: workers, Obs: tr})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		frames, comments := streamSessionTraced(t, ts.URL, body, tp)
		if len(frames) < 2 || frames[len(frames)-1].Event != "result" {
			t.Fatalf("stream did not finish with a result frame (%d frames)", len(frames))
		}
		var evs []obs.Event
		for _, e := range tr.Events() {
			if e.Track == tc.Track() {
				evs = append(evs, e)
			}
		}
		if len(evs) == 0 {
			t.Fatalf("no events recorded on trace track %q", tc.Track())
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), comments
	}

	serial, comments := run(1)
	if len(comments) == 0 || comments[0] != ": traceparent "+tp {
		t.Fatalf("stream comments %q do not announce the forwarded trace %q", comments, tp)
	}
	// Every layer of the span hierarchy lands on the same trace track:
	// the remote hop, the request span, queue admission, and the attack
	// engine's per-key verdicts.
	for _, name := range []string{"serve.router_hop", "serve.request", "serve.queue_admit", "engine.verdict"} {
		if !bytes.Contains(serial, []byte(`"name":"`+name+`"`)) {
			t.Errorf("trace export missing %s event", name)
		}
	}
	if bytes.Contains(serial, []byte(`"track":"trace/`)) &&
		!bytes.Contains(serial, []byte(`"track":"trace/`+tc.TraceID+`"`)) {
		t.Errorf("trace export carries a foreign trace id")
	}

	// Byte identity across worker counts: the span/event stream of one
	// trace is a function of the request seed, not of scheduling.
	parallel, _ := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace export differs between TrainWorkers=1 and TrainWorkers=8:\n%s\nvs\n%s", serial, parallel)
	}

	// Failover replay: the router re-creates the session on a fresh
	// replica with the original traceparent. The replay's trace must be
	// the same trace, byte for byte, and be re-announced in-band.
	replay, replayComments := run(1)
	if len(replayComments) == 0 || replayComments[0] != ": traceparent "+tp {
		t.Fatalf("failover replay announced %q, want the original trace %q", replayComments, tp)
	}
	if !bytes.Equal(serial, replay) {
		t.Fatalf("failover replay produced a different trace:\n%s\nvs\n%s", serial, replay)
	}
}
