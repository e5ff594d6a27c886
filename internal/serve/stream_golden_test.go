package serve

// Whole SSE session bodies, byte for byte: every id:, event: and data:
// line, comment and blank line a client reads, for a session created
// with an inbound traceparent and for a practical-typing session whose
// stream retracts a key and carries alternates and margins. Regenerate
// with
//
//	go test -run TestSessionStreamGolden -update ./internal/serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamCase is one pinned session: its create body and the traceparent
// header the create carries ("" for none).
type streamCase struct {
	name, body, traceparent string
}

var streamCases = []streamCase{
	{"traceparent", `{"text":"hunter2","seed":7}`, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
	{"practical", `{"text":"hunter2","seed":1,"practical":true}`, ""},
}

// TestSessionStreamGolden pins the bytes of whole session streams served
// by one replica, against testdata/session_stream_golden.txt. Each case
// is written as a "=== name body" line followed by the raw stream.
func TestSessionStreamGolden(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{Shards: 2, TrainWorkers: 2}))
	defer ts.Close()

	var got bytes.Buffer
	for _, c := range streamCases {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.traceparent != "" {
			req.Header.Set(TraceparentHeader, c.traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: session create: status %d", c.name, resp.StatusCode)
		}
		sr := decodeBody[SessionResponse](t, resp)
		stream := doReq(t, http.MethodGet, ts.URL+sr.Stream)
		raw, err := io.ReadAll(stream.Body)
		stream.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "=== %s %s\n", c.name, c.body)
		got.Write(raw)
	}
	for _, want := range []string{"event: retract\n", `"alt":"`, `"margin":`, ": traceparent "} {
		if !strings.Contains(got.String(), want) {
			t.Fatalf("the pinned streams carry no %q", want)
		}
	}

	path := filepath.Join("testdata", "session_stream_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("stream line %d diverges from golden:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("streams have %d lines, golden %d", len(gl), len(wl))
	}
}
