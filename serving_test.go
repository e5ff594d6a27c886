package gpuleak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gpuleak/internal/channel"
	"gpuleak/internal/serve"
)

// servedEavesdrop POSTs one eavesdrop request and returns the raw body
// (for byte-equality) plus the decoded response.
func servedEavesdrop(t *testing.T, url, body string) ([]byte, serve.EavesdropResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/eavesdrop", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/eavesdrop: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/eavesdrop: status %d: %s", resp.StatusCode, raw)
	}
	var er serve.EavesdropResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return raw, er
}

// TestServedEavesdropMatchesLibrary pins the serving layer's core
// contract: /v1/eavesdrop is byte-identical to the library quick start
// for the same request, at parallelism 1 and at parallelism 8 — the
// queues, the shared registry and the per-request contexts are control
// plumbing that never leaks into the result.
func TestServedEavesdropMatchesLibrary(t *testing.T) {
	const (
		text = "hunter2"
		seed = int64(7)
	)

	// Library path: exactly the package-doc quick start, with the serving
	// layer's own scenario/training derivations so both sides agree on
	// the configuration.
	req := serve.EavesdropRequest{Text: text, Seed: seed}
	scen, err := serve.ResolveScenario(req)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainWith(serve.TrainConfig(scen.Cfg), CollectOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(scen.Cfg)
	sess.Run(TypeText(text, seed))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewAttack(model).Eavesdrop(f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.NewServer(serve.Options{Shards: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"text":%q,"seed":%d}`, text, seed)

	check := func(raw []byte, got serve.EavesdropResponse) {
		t.Helper()
		if got.Text != want.Text {
			t.Errorf("served text %q, library text %q", got.Text, want.Text)
		}
		if got.Truth != sess.TypedText() {
			t.Errorf("served truth %q, session truth %q", got.Truth, sess.TypedText())
		}
		if got.Keys != len(want.Keys) {
			t.Errorf("served keys %d, library keys %d", got.Keys, len(want.Keys))
		}
		if got.EstimatedLength != want.EstimatedLength {
			t.Errorf("served estimated_length %d, library %d",
				got.EstimatedLength, want.EstimatedLength)
		}
		if got.Stats != want.Stats {
			t.Errorf("served stats %+v, library stats %+v", got.Stats, want.Stats)
		}
		if got.Model != want.Model.String() {
			t.Errorf("served model %q, library model %q", got.Model, want.Model)
		}
	}

	// Parallelism 1: a single request against a cold registry (the server
	// trains its own model on miss — it must land on the same bytes).
	serialRaw, serialResp := servedEavesdrop(t, ts.URL, body)
	check(serialRaw, serialResp)

	// Parallelism 8: identical concurrent requests against the now-warm
	// registry; every body must match the serial one byte for byte.
	const parallelism = 8
	raws := make([][]byte, parallelism)
	var wg sync.WaitGroup
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, resp := servedEavesdrop(t, ts.URL, body)
			check(raw, resp)
			raws[i] = raw
		}(i)
	}
	wg.Wait()
	for i, raw := range raws {
		if !bytes.Equal(raw, serialRaw) {
			t.Fatalf("concurrent response %d differs from serial response:\n%s\nvs\n%s",
				i, raw, serialRaw)
		}
	}
}

// TestEavesdropSessionMatchesServed pins the facade's multi-channel entry
// point against the serving layer: EavesdropSession over the default
// channel and over kgsl+proccount fusion yields, field for field, the
// response /v1/eavesdrop serves for the same scenario and models.
func TestEavesdropSessionMatchesServed(t *testing.T) {
	srv := serve.NewServer(serve.Options{Shards: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name     string
		channels []string
	}{
		{"kgsl", nil},
		{"kgsl+proccount", []string{"kgsl", "proccount"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := serve.EavesdropRequest{Text: "pa55word", Seed: 11, Channels: tc.channels}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			wantRaw, _ := servedEavesdrop(t, ts.URL, string(body))

			scen, err := serve.ResolveScenario(req)
			if err != nil {
				t.Fatal(err)
			}
			names := scen.Channels
			if len(names) == 0 {
				names = []string{"kgsl"}
			}
			var models []*Model
			for _, name := range names {
				m, err := srv.Registry().LookupChannel(serve.TrainConfig(scen.Cfg), channel.Canonical(name))
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
			}
			sess := NewVictim(scen.Cfg)
			sess.Run(scen.Script())
			fr, err := EavesdropSession(context.Background(), sess, models, 0, sess.End, WithChannels(names...))
			if err != nil {
				t.Fatal(err)
			}

			res := fr.Fused
			got := serve.EavesdropResponse{
				Schema: serve.Schema, Model: res.Model.String(), Text: res.Text,
				Truth: sess.TypedText(), Keys: len(res.Keys), EstimatedLength: res.EstimatedLength,
				Stats: res.Stats, Degraded: res.Degraded, Channel: scen.Primary(),
			}
			if res.Degraded {
				rec := res.Recovery
				got.Recovery = &rec
			}
			if len(names) > 1 {
				got.Fusion = &serve.FusionInfo{
					Channels: names, PrimaryText: fr.Primary.Text, SecondaryText: fr.Secondary.Text,
					Recovered: fr.Recovered, Flipped: fr.Flipped,
				}
			}
			var gotRaw bytes.Buffer
			enc := json.NewEncoder(&gotRaw)
			enc.SetIndent("", "  ")
			if err := enc.Encode(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotRaw.Bytes(), wantRaw) {
				t.Fatalf("EavesdropSession differs from the served response:\n%s\nvs\n%s", gotRaw.Bytes(), wantRaw)
			}
		})
	}
}

// TestServedPracticalSession pins that the server's practical mode uses
// the same script generator as PracticalSession: the served ground truth
// matches a locally simulated practical session.
func TestServedPracticalSession(t *testing.T) {
	const (
		text = "pass123"
		seed = int64(3)
	)
	scen, err := serve.ResolveScenario(serve.EavesdropRequest{
		Text: text, Seed: seed, Practical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(scen.Cfg)
	sess.Run(PracticalSession(text, Volunteers[0], seed))

	srv := serve.NewServer(serve.Options{Shards: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, got := servedEavesdrop(t, ts.URL,
		fmt.Sprintf(`{"text":%q,"seed":%d,"practical":true}`, text, seed))
	if got.Truth != sess.TypedText() {
		t.Fatalf("served practical truth %q, local session truth %q",
			got.Truth, sess.TypedText())
	}
}

// TestServedEavesdropDegradedMode pins the serving layer's degraded-mode
// contract: injected device faults that the retry policy absorbs produce
// 200s flagged degraded (with recovery accounting), never 5xx — and the
// "none" profile routed through the fault plane is byte-identical to not
// asking for faults at all.
func TestServedEavesdropDegradedMode(t *testing.T) {
	srv := serve.NewServer(serve.Options{Shards: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A moderate profile must be absorbed: 200, degraded, with the
	// recovery counters explaining why the result may be imperfect.
	_, degraded := servedEavesdrop(t, ts.URL,
		`{"text":"hunter2","seed":7,"fault_profile":"moderate"}`)
	if !degraded.Degraded {
		t.Error("moderate fault profile produced a non-degraded response")
	}
	if degraded.Recovery == nil {
		t.Fatal("degraded response carries no recovery accounting")
	}
	if !degraded.Recovery.Degraded() {
		t.Errorf("recovery accounting %+v shows no recovery work", *degraded.Recovery)
	}

	// The "none" profile arms the fault plane and the retry policy but
	// injects nothing: the response must match the plain request byte for
	// byte (the passthrough identity, end to end through HTTP).
	plain, _ := servedEavesdrop(t, ts.URL, `{"text":"hunter2","seed":7}`)
	wrapped, _ := servedEavesdrop(t, ts.URL,
		`{"text":"hunter2","seed":7,"fault_profile":"none"}`)
	if !bytes.Equal(plain, wrapped) {
		t.Errorf("none-profile response differs from plain response:\n%s\nvs\n%s", wrapped, plain)
	}

	// Unknown profiles are client errors.
	resp, err := http.Post(ts.URL+"/v1/eavesdrop", "application/json",
		strings.NewReader(`{"text":"x","fault_profile":"catastrophic"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown fault profile: status %d, want 400", resp.StatusCode)
	}
}
