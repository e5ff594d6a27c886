package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"gpuleak/internal/serve"
)

// maxRelayLine is the longest line, terminator included, relayFrames
// reads; a longer one ends the relay with bufio.ErrTooLong.
const maxRelayLine = 1024 * 1024

// refFrame is one complete frame of a backend stream as the fuzz oracle
// reads it, serialized the way the relay writes it.
type refFrame struct {
	text    string // non-blank lines, each ending "\n", then "\n"
	id      int
	event   string
	longest int // the longest raw line read up to this frame's end
}

// splitFrames is the oracle's SSE reader, written apart from the relay's
// bufio.Scanner: a line ends at "\n" with one trailing "\r" dropped, and
// a blank line completes a frame. A final unterminated frame is dropped.
func splitFrames(data []byte) []refFrame {
	var frames []refFrame
	var text strings.Builder
	id, event, longest := 0, "", 0
	for rest := string(data); rest != ""; {
		line, after, found := strings.Cut(rest, "\n")
		raw := len(line)
		if found {
			raw++
		}
		longest = max(longest, raw)
		rest = after
		if line = strings.TrimSuffix(line, "\r"); line != "" {
			text.WriteString(line + "\n")
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				id, _ = strconv.Atoi(v)
			}
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
			}
			continue
		}
		frames = append(frames, refFrame{text: text.String() + "\n", id: id, event: event, longest: longest})
		text.Reset()
		id, event = 0, ""
	}
	return frames
}

// replicaStream records the SSE stream one in-process replica serves for
// sessionBody.
func replicaStream(f *testing.F) []byte {
	ts := httptest.NewServer(serve.NewServer(serve.Options{Shards: 1}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(sessionBody))
	if err != nil {
		f.Fatal(err)
	}
	var sr serve.SessionResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		f.Fatal(err)
	}
	resp, err = http.Get(ts.URL + sr.Stream)
	if err != nil {
		f.Fatal(err)
	}
	defer resp.Body.Close()
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		f.Fatal(err)
	}
	return stream
}

// FuzzRelayFrames feeds relayFrames arbitrary backend streams. It never
// panics; it writes only whole input frames, byte for byte and in input
// order, none of them "open", with ids strictly increasing from above
// relayed+1; the relayed count never falls; and it reports done exactly
// when a complete result or error frame was read, writing nothing after
// it.
func FuzzRelayFrames(f *testing.F) {
	stream := replicaStream(f)
	cut := stream[:bytes.LastIndex(stream, []byte("data: "))+10] // inside the result frame
	long := append([]byte("id: 2\nevent: key\ndata: "+strings.Repeat("x", maxRelayLine)+"\n\n"), stream...)
	for _, relayed := range []uint8{0, 3} {
		f.Add(stream, relayed)
		f.Add(cut, relayed)
	}
	f.Add(long, uint8(0))
	f.Add([]byte("\x00\xff\r\n\n:\nid: -1\nevent: result\r\n\r\nid: 99999999999999999999\nevent: error\n\n"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, relayed uint8) {
		var out bytes.Buffer
		got, done, err := relayFrames(bytes.NewReader(data), &out, int(relayed))
		if done != (err == nil) {
			t.Fatalf("done = %v with error %v", done, err)
		}

		ref := splitFrames(data)
		term := -1
		for i, fr := range ref {
			if fr.event == "result" || fr.event == "error" {
				term = i
				break
			}
		}
		pieces := strings.SplitAfter(out.String(), "\n\n")
		if pieces[len(pieces)-1] != "" {
			t.Fatalf("output ends mid-frame: %q", pieces[len(pieces)-1])
		}
		next, lastID, lastRef := 0, int(relayed)+1, -1
		for _, piece := range pieces[:len(pieces)-1] {
			for next < len(ref) && ref[next].text != piece {
				next++
			}
			if next == len(ref) {
				t.Fatalf("output frame %q is not a whole input frame in input order", piece)
			}
			fr := ref[next]
			if fr.event == "open" {
				t.Fatalf("relayed an open frame: %q", piece)
			}
			if fr.id <= lastID {
				t.Fatalf("relayed id %d after id %d (relayed %d)", fr.id, lastID, relayed)
			}
			lastID, lastRef = fr.id, next
			next++
		}
		if want := lastID - 1; got != want {
			t.Fatalf("relayed count %d, want %d (from %d)", got, want, relayed)
		}

		switch {
		case term >= 0 && ref[term].longest < maxRelayLine:
			if !done {
				t.Fatalf("complete %s frame read, but not done: %v", ref[term].event, err)
			}
		case term < 0 || ref[term].longest > maxRelayLine+1:
			if done {
				t.Fatal("done without reading a complete result or error frame")
			}
		}
		if done && lastRef > term {
			t.Fatalf("wrote input frame %d after the %s frame %d", lastRef, ref[term].event, term)
		}
	})
}
