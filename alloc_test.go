package gpuleak

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/serve"
)

// TestWarmPathAllocs is the measured allocation gate of the library hot
// path and of the serving layer around it. Allocation counts and bytes
// are deterministic, so a change that adds per-session or per-tick
// allocations fails here instead of drifting in a benchmark; the byte
// ceilings also catch an allocation that grows without adding to the
// count, such as a slice stored per tick. Every path runs warm: the
// model is trained and the frame-stats memo holds every frame the script
// renders. The per-stage rows re-sample one session, re-extract its
// deltas and replay them through the engine, segmentation and classify
// calls; a ceiling of 0 pins a stage to no allocation at all. The two
// serving rows drive a zero-Options server (no micro-batcher) in process
// through ServeHTTP with httptest requests and recorders, so no socket
// is opened: a one-shot POST /v1/eavesdrop, and a session created by
// POST /v1/sessions whose stream is read to its result frame.
func TestWarmPathAllocs(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 13}
	m, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	script := TypeText("hunter2pass", 13)
	ctx := context.Background()

	sess := NewVictim(cfg)
	sess.Run(script)
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSamplerOn(f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.CollectContext(context.Background(), 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	ds := tr.Deltas()
	if len(ds) == 0 {
		t.Fatal("warm session produced no deltas")
	}

	b := serve.NewBatcher(1, 0, 16, obs.NewMetrics())
	defer b.Close()
	next := 0

	srv := serve.NewServer(serve.Options{})
	const reqBody = `{"text":"hunter2pass","seed":13}`
	serveOne := func(method, target, body string, want int) *httptest.ResponseRecorder {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, target, rec.Code, want, rec.Body.Bytes())
		}
		return rec
	}

	for _, c := range []struct {
		name    string
		ceiling float64
		// bytes is the ceiling on bytes allocated per run, about 15%
		// above the measured reading (the same with and without -race,
		// but for the serving rows); 0 leaves the row's bytes unchecked.
		bytes uint64
		// runs is 1000 for the batcher: under -race sync.Pool drops one
		// Put in four and each refill allocates 3 times, so only a long
		// run keeps the truncated mean (0.75) at 0, while a real
		// per-call allocation still reads 1.
		runs int
		run  func()
	}{
		{"eavesdrop", 36, 25500, 10, func() {
			sess := NewVictim(cfg)
			sess.Run(script)
			f, err := sess.Open()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewAttack(m).EavesdropContext(ctx, f, 0, sess.End); err != nil {
				t.Fatal(err)
			}
		}},
		{"victim session", 21, 22700, 10, func() { NewVictim(cfg).Run(script) }},
		{"Sampler.CollectContext", 2, 7300, 10, func() {
			if _, err := s.CollectContext(context.Background(), 0, sess.End); err != nil {
				t.Fatal(err)
			}
		}},
		{"Trace.Deltas", 0, 0, 10, func() { tr.Deltas() }},
		{"Model.Classify", 0, 0, 10, func() {
			for _, d := range ds {
				m.Classify(d.V)
			}
		}},
		{"Model.ClassifyDenoised", 0, 0, 10, func() {
			for _, d := range ds {
				m.ClassifyDenoised(d.V)
			}
		}},
		{"Batcher.Classify", 0, 0, 1000, func() {
			d := ds[next%len(ds)]
			next++
			b.Classify(0, m, d.At, d.V)
		}},
		{"Engine.ProcessAll", 7, 1400, 10, func() {
			attack.NewEngine(m, attack.DefaultInterval, OnlineOptions{}).ProcessAll(ds)
		}},
		{"SegmentTrace", 27, 0, 10, func() {
			attack.SegmentTrace(m, ds, attack.DefaultInterval, OnlineOptions{})
		}},
		{"serve one-shot", underRace[float64](115, 97), underRace[uint64](46500, 44900), 10, func() {
			serveOne(http.MethodPost, "/v1/eavesdrop", reqBody, http.StatusOK)
		}},
		{"serve session", underRace[float64](185, 134), underRace[uint64](70500, 59500), 10, func() {
			var sr serve.SessionResponse
			if err := json.Unmarshal(serveOne(http.MethodPost, "/v1/sessions", reqBody, http.StatusCreated).Body.Bytes(), &sr); err != nil {
				t.Fatal(err)
			}
			if rec := serveOne(http.MethodGet, sr.Stream, "", http.StatusOK); !bytes.Contains(rec.Body.Bytes(), []byte("\nevent: result\n")) {
				t.Fatalf("session stream has no result frame:\n%s", rec.Body.Bytes())
			}
		}},
	} {
		c.run()
		if got := testing.AllocsPerRun(c.runs, c.run); got > c.ceiling {
			t.Errorf("warm %s: %.0f allocations per run, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("warm %s: %.0f allocations per run (ceiling %.0f)", c.name, got, c.ceiling)
		}
		if c.bytes == 0 {
			continue
		}
		if got := bytesPerRun(c.runs, c.run); got > c.bytes {
			t.Errorf("warm %s: %d bytes per run, ceiling %d", c.name, got, c.bytes)
		} else {
			t.Logf("warm %s: %d bytes per run (ceiling %d)", c.name, got, c.bytes)
		}
	}
}

// raceEnabled reports a -race build; race_test.go sets it.
var raceEnabled bool

// underRace picks a serving row's ceiling for the race build: there
// encoding/json's pools drop one Put in four, so each run refills them a
// varying number of times, and ten runs read a count that moves by a few
// allocations and some kilobytes more than the plain build's.
func underRace[T any](race, plain T) T {
	if raceEnabled {
		return race
	}
	return plain
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean growth of
// runtime.MemStats.TotalAlloc over runs calls of f, after one warm-up
// call, on one P as AllocsPerRun measures.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
