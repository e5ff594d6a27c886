package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL hardens the telemetry reader the same way trace.FuzzReadCSV
// hardens the trace parser: arbitrary input never panics, and any stream
// that parses must survive a write/read round trip unchanged (the writer
// is canonical, so the second serialization must equal the first).
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteJSONL(&buf, sampleEvents())
	f.Add(buf.String())
	f.Add("")
	f.Add("{}\n")
	f.Add(`{"seq":0,"at_us":12,"name":"e","track":"main"}` + "\n")
	f.Add(`{"seq":0,"at_us":12,"dur_us":3,"name":"e","track":"t","attrs":{"a":1,"b":"x"}}` + "\n")
	f.Fuzz(func(t *testing.T, doc string) {
		evs, err := ReadJSONL(strings.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, evs); err != nil {
			t.Fatalf("reserializing parsed stream: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("round trip lost events: %d vs %d", len(back), len(evs))
		}
		var out2 bytes.Buffer
		if err := WriteJSONL(&out2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("serialization not canonical:\n%q\nvs\n%q", out.String(), out2.String())
		}
	})
}

// FuzzParseTraceparent hardens the parser of the traceparent header a
// client sends. An accepted value renders back to the same first 53
// bytes (everything but the flags byte, which this repo always sends as
// 01), and parsing that rendering again yields the same ids. A rejected
// value yields the zero TraceContext, never a half-filled one.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTrace(42).Traceparent())
	for _, s := range rejectedTraceparents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		hdr := tc.Traceparent()
		if hdr[:53] != s[:53] {
			t.Fatalf("accepted %q but renders %q", s, hdr)
		}
		again, ok := ParseTraceparent(hdr)
		if !ok || again.TraceID != tc.TraceID || again.SpanID != tc.SpanID {
			t.Fatalf("rendering %q of %q reparses to %+v, %v", hdr, s, again, ok)
		}
	})
}
