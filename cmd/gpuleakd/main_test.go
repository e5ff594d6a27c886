package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/serve"
)

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

// TestRunServesAndDrains starts the daemon on an ephemeral port, checks
// the flag wiring through /healthz, serves one eavesdrop that must match
// its ground truth, then cancels ctx as SIGTERM does: run must drain to
// nil and leave a -trace-out stream that parses.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	traceOut := filepath.Join(dir, "trace.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-shards", "3", "-trace-out", traceOut})
	}()
	base := "http://" + waitAddr(t, addrFile, done)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d, decode error %v", resp.StatusCode, err)
	}
	if h.Shards != 3 {
		t.Fatalf("/healthz reports %d shards, want the -shards value 3", h.Shards)
	}

	resp, err = http.Post(base+"/v1/eavesdrop", "application/json", strings.NewReader(`{"text":"hunter2","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	var er serve.EavesdropResponse
	err = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/eavesdrop: status %d, decode error %v", resp.StatusCode, err)
	}
	if er.Truth != "hunter2" || er.Text != er.Truth {
		t.Fatalf("eavesdropped %q, truth %q: want both %q", er.Text, er.Truth, "hunter2")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v, want a clean drain", err)
	}
	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("-trace-out does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("-trace-out holds no events after a traced eavesdrop")
	}
}
