package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHammerRouter runs one-shots and session streams through the router
// while other goroutines poll /healthz and /metrics, flip one replica
// down and up with a reshard after each flip, and start a drain midway.
// Every one-shot and every stream must answer either the undisturbed
// bytes (a stream compared without its ": failover" comments and with
// its session id masked) or a 503 with Retry-After, and the drain must
// end clean. Under -race it checks the router's locking against all of
// these at once.
func TestHammerRouter(t *testing.T) {
	f := newTestFleet(t)
	var urls []string
	for u := range f.replicas {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	// Both replicas answer the one-shot with the same bytes, so a flip
	// that moves the owner changes no answer. This also warms both.
	_, wantOne := postEavesdrop(t, urls[0])
	if _, other := postEavesdrop(t, urls[1]); !bytes.Equal(other, wantOne) {
		t.Fatalf("replicas disagree on the one-shot:\n%s\nvs\n%s", wantOne, other)
	}
	if _, routed := postEavesdrop(t, f.url); !bytes.Equal(routed, wantOne) {
		t.Fatalf("routed one-shot differs from the replicas':\n%s\nvs\n%s", routed, wantOne)
	}
	resp, wantStream := f.stream(t)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undisturbed stream: status %d\n%s", resp.StatusCode, wantStream)
	}
	checkUndisturbed(t, wantStream)
	wantStream = sessionID.ReplaceAll(wantStream, []byte(`"id":"<session>"`))

	const (
		clients     = 4
		maxRequests = 250 // per client; a drained router ends each far sooner
		drainAfter  = 400 // undisturbed answers before the drain starts
	)
	var (
		served     atomic.Int64
		shed       atomic.Int64
		flips      atomic.Int64
		startDrain = make(chan struct{})
		draining   = make(chan struct{})
		done       = make(chan struct{})
		drainErr   = make(chan error, 1)
		once       sync.Once
	)

	var background sync.WaitGroup
	for _, path := range []string{"/healthz", "/metrics", "/metrics?format=prom"} {
		background.Add(1)
		go func(path string) {
			defer background.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(f.url + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK &&
					!(path == "/healthz" && resp.StatusCode == http.StatusServiceUnavailable) {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	background.Add(1)
	go func() {
		defer background.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
			for i := 0; i < 2; i++ { // downAfter
				f.rt.ms.ReportFailure(urls[0])
			}
			f.rt.reshard()
			time.Sleep(5 * time.Millisecond)
			f.rt.ms.ReportSuccess(urls[0])
			f.rt.reshard()
			flips.Add(1)
		}
	}()
	go func() {
		<-startDrain
		go func() {
			// A client stops at its first 503 once the router reports
			// draining. isDraining runs here alongside the drain, as it
			// does in every session create and health probe.
			for !f.rt.isDraining() {
			}
			close(draining)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drainErr <- f.rt.drain(ctx)
	}()

	var clientsDone sync.WaitGroup
	for c := 0; c < clients; c++ {
		clientsDone.Add(1)
		go func(c int) {
			defer clientsDone.Done()
			for i := 0; i < maxRequests; i++ {
				var ok bool
				var err error
				if c%2 == 0 {
					ok, err = hammerOneShot(f.url, wantOne)
				} else {
					ok, err = hammerStream(f.url, wantStream)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					if served.Add(1) == drainAfter {
						once.Do(func() { close(startDrain) })
					}
					continue
				}
				shed.Add(1)
				select {
				case <-draining:
					return // shed by the drain: this client is done
				default:
				}
			}
		}(c)
	}
	clientsDone.Wait()
	once.Do(func() { close(startDrain) })
	err := <-drainErr
	close(done)
	background.Wait()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	t.Logf("%d undisturbed answers, %d shed, %d flips", served.Load(), shed.Load(), flips.Load())
	if n := served.Load(); n < drainAfter {
		t.Fatalf("%d undisturbed answers before the clients stopped, want at least %d", n, drainAfter)
	}
	if ok, err := hammerOneShot(f.url, wantOne); ok || err != nil {
		t.Fatalf("one-shot on a drained router: undisturbed %v, error %v; want a 503 with Retry-After", ok, err)
	}
}

// hammerOneShot posts the session body to the router's /v1/eavesdrop.
// ok reports the undisturbed reply; err reports any answer that is
// neither that nor a 503 with Retry-After.
func hammerOneShot(base string, want []byte) (ok bool, err error) {
	resp, err := http.Post(base+"/v1/eavesdrop", "application/json", strings.NewReader(sessionBody))
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	return judge("one-shot", resp, body, want)
}

// hammerStream opens the session's stream through the router; ok and
// err are as for hammerOneShot, with the stream compared without its
// ": failover" comments and with its session id masked.
func hammerStream(base string, want []byte) (ok bool, err error) {
	resp, body, err := openStream(base)
	if err != nil {
		return false, err
	}
	body = sessionID.ReplaceAll(failoverComment.ReplaceAll(body, nil), []byte(`"id":"<session>"`))
	return judge("stream", resp, body, want)
}

// sessionID matches the router session id in a stream's open frame, the
// one byte run that differs between two sessions of the same request.
var sessionID = regexp.MustCompile(`"id":"r-[0-9]+"`)

// judge sorts one answer: the undisturbed bytes (ok), a 503 with
// Retry-After (shed), or anything else (err).
func judge(what string, resp *http.Response, got, want []byte) (ok bool, err error) {
	switch {
	case resp.StatusCode == http.StatusOK && bytes.Equal(got, want):
		return true, nil
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		return false, nil
	}
	return false, fmt.Errorf("%s answered %d with Retry-After %q, neither the undisturbed bytes nor a 503 with Retry-After:\n%s",
		what, resp.StatusCode, resp.Header.Get("Retry-After"), got)
}
