package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"unicode/utf8"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
)

// refEventFrame is the reference encoding of one verdict frame: the
// event's data built as a fresh StreamEventData, marshaled by
// json.Marshal and framed by fmt.
func refEventFrame(seq uint64, ev attack.StreamEvent) ([]byte, error) {
	data := StreamEventData{Schema: StreamSchema, Seq: seq, AtUS: int64(ev.At), Kind: ev.Kind, Keys: ev.Keys}
	if ev.Kind == "key" {
		data.Key = string(ev.Key.R)
		if ev.Key.Alt != 0 {
			data.Alt = string(ev.Key.Alt)
		}
		data.Margin = ev.Key.Margin
	}
	payload, err := json.Marshal(data)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", seq, ev.Kind, payload)
	return b.Bytes(), nil
}

// FuzzStreamFrame holds a started stream's verdict frames to the
// reference encoding, byte for byte: the same event sent twice, at ids
// seq and seq+1, must write the two reference frames, so the stream's
// reused buffer and event data carry nothing from one frame to the
// next. Where the reference fails (a NaN or infinite margin on a key),
// the stream must fail with the same error, wrapped, and write nothing.
func FuzzStreamFrame(f *testing.F) {
	for _, c := range []struct {
		kind     string
		key, alt rune
		margin   float64
	}{
		{"key", 'h', 'n', 4.029392681298761},
		{"key", '2', 0, 0},
		{"retract", 0, 0, 0},
		{"key", '<', '&', 1e-7},
		{"key", '>', '\u2028', 1e21},
		{"key", 'é', '日', -0.5},
		{"key", -1, 0xD800, 2},
		{"key", utf8.MaxRune + 1, math.MaxInt32, 3},
		{"key", 'a', 'b', math.NaN()},
		{"key", 'a', 'b', math.Inf(1)},
		{"key", 'a', 'b', math.Inf(-1)},
		{"retract", 'a', 'b', math.NaN()},
		{"", 0, 0, 0},
		{"event\nwith: lines", 'x', 'y', 1},
	} {
		f.Add(uint64(2), c.kind, int64(720000), 1, c.key, c.alt, c.margin)
	}
	f.Add(uint64(0), "key", int64(-1), -3, 'q', 'w', 0.25)
	f.Add(uint64(math.MaxUint64), "key", int64(math.MinInt64), math.MaxInt, 'q', 'w', 0.25)
	f.Fuzz(func(t *testing.T, seq uint64, kind string, at int64, keys int, key, alt rune, margin float64) {
		ev := attack.StreamEvent{Kind: kind, At: sim.Time(at), Keys: keys}
		ev.Key.R, ev.Key.Alt, ev.Key.Margin = key, alt, margin

		rec := httptest.NewRecorder()
		st := newSSEStream(rec, "s-00000001", obs.TraceContext{})
		st.started = true // the header and the open frame are not under test
		st.seq = seq - 1
		for i := uint64(0); i < 2; i++ {
			want, refErr := refEventFrame(seq+i, ev)
			before := rec.Body.Len()
			err := st.event(ev)
			got := rec.Body.Bytes()[before:]
			if refErr != nil {
				if err == nil || err.Error() != "serve: encoding "+kind+" frame: "+refErr.Error() {
					t.Fatalf("frame %d: reference fails with %v, stream with %v", seq+i, refErr, err)
				}
				if len(got) != 0 {
					t.Fatalf("frame %d: a failed frame wrote %q", seq+i, got)
				}
				continue
			}
			if err != nil {
				t.Fatalf("frame %d: %v", seq+i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d:\n got %q\nwant %q", seq+i, got, want)
			}
		}
	})
}
