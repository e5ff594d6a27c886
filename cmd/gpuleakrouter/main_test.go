package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuleak/internal/serve"
)

// sessionBody is the eavesdrop the routed and the direct request post.
const sessionBody = `{"text":"hunter2","seed":7}`

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
	owner := resp.Header.Get(serve.BackendHeader)
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
