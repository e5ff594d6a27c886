package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"unicode/utf8"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
)

// sseStream writes one session's Server-Sent-Events response. Frames are
// `id:`-numbered so a router that lost its backend mid-stream can replay
// the session on another replica and skip the frames the client already
// received — deterministic replicas produce byte-identical frames, which
// makes that splice invisible.
//
// Frames are appended to one buffer the stream owns, their data encoded
// there by a json.Encoder bound to it, and every verdict reuses the
// stream's one StreamEventData, so a verdict frame allocates nothing of
// its own but the string of a non-ASCII key.
type sseStream struct {
	w         http.ResponseWriter
	flush     http.Flusher
	sessionID string
	trace     obs.TraceContext
	started   bool
	seq       uint64
	buf       bytes.Buffer
	enc       *json.Encoder // writes into buf
	ev        StreamEventData
}

// frameBufSize is the frame buffer's starting capacity: room for the
// largest write of a plain session, its result frame of about 600 bytes,
// so the buffer rarely grows.
const frameBufSize = 1024

func newSSEStream(w http.ResponseWriter, sessionID string, trace obs.TraceContext) *sseStream {
	st := &sseStream{w: w, sessionID: sessionID, trace: trace}
	st.flush, _ = w.(http.Flusher)
	st.buf.Grow(frameBufSize)
	st.enc = json.NewEncoder(&st.buf)
	return st
}

// start writes the SSE response header and queues the traceparent
// comment and the "open" frame, which reach the client with the frame
// that called start. It runs lazily, when the first verdict or the
// result is about to be written, so setup errors can still be answered
// as plain JSON.
func (st *sseStream) start() error {
	if st.started {
		return nil
	}
	st.started = true
	// The three values share one backing array; Header.Set would
	// allocate a slice for each.
	v := []string{"text/event-stream", "no-store", "no"}
	h := st.w.Header()
	h["Content-Type"] = v[0:1:1]
	h["Cache-Control"] = v[1:2:2]
	h["X-Accel-Buffering"] = v[2:3:3]
	st.w.WriteHeader(http.StatusOK)
	if st.trace.Valid() {
		// The trace id also travels in-band: comment frames carry no id,
		// so a router splicing replicas never replays them — every hop
		// (router, then each replica it attaches) speaks its own
		// traceparent line ahead of the first real frame, and a client
		// can correlate the stream with exported spans even across a
		// failover.
		st.buf.WriteString(": traceparent ")
		st.buf.WriteString(st.trace.Traceparent())
		st.buf.WriteString("\n\n")
	}
	return st.frame("open", &SessionResponse{Schema: Schema, ID: st.sessionID})
}

// frame appends one SSE frame (id/event/data, blank-line terminated)
// with a compact-JSON data payload to the stream's buffer. The encoder
// writes exactly what json.Marshal returns, then a newline. A payload
// that fails to encode leaves the buffer as it was, but still uses up
// its id.
func (st *sseStream) frame(event string, data any) error {
	st.seq++
	mark := st.buf.Len()
	st.buf.WriteString("id: ")
	st.buf.Write(strconv.AppendUint(st.buf.AvailableBuffer(), st.seq, 10))
	st.buf.WriteString("\nevent: ")
	st.buf.WriteString(event)
	st.buf.WriteString("\ndata: ")
	if err := st.enc.Encode(data); err != nil {
		st.buf.Truncate(mark)
		return fmt.Errorf("serve: encoding %s frame: %w", event, err)
	}
	st.buf.WriteByte('\n')
	return nil
}

// send writes the buffered frames, the last of them event, to the client
// with one Write and one flush.
func (st *sseStream) send(event string) error {
	_, err := st.w.Write(st.buf.Bytes())
	st.buf.Reset()
	if err != nil {
		return fmt.Errorf("serve: writing %s frame: %w", event, err)
	}
	if st.flush != nil {
		st.flush.Flush()
	}
	return nil
}

// event forwards one engine commit/withdrawal as a "key"/"retract" frame.
func (st *sseStream) event(ev attack.StreamEvent) error {
	if err := st.start(); err != nil {
		return err
	}
	st.ev = StreamEventData{
		Schema: StreamSchema,
		Seq:    st.seq + 1,
		AtUS:   int64(ev.At),
		Kind:   ev.Kind,
		Keys:   ev.Keys,
	}
	if ev.Kind == "key" {
		st.ev.Key = runeString(ev.Key.R)
		if ev.Key.Alt != 0 {
			st.ev.Alt = runeString(ev.Key.Alt)
		}
		st.ev.Margin = ev.Key.Margin
	}
	if err := st.frame(ev.Kind, &st.ev); err != nil {
		return err
	}
	return st.send(ev.Kind)
}

// result closes the stream with the one-shot response. The data payload
// is the compact form of exactly the JSON /v1/eavesdrop would have
// written for the same request, pinned by the root streaming tests.
func (st *sseStream) result(resp *EavesdropResponse) error {
	if err := st.start(); err != nil {
		return err
	}
	if err := st.frame("result", resp); err != nil {
		return err
	}
	return st.send("result")
}

// fail reports an error on an already-started stream as an in-band
// "error" frame (the HTTP status line has long been sent), after any
// frames start queued.
func (st *sseStream) fail(err error, status int) {
	if st.frame("error", &ErrorResponse{Schema: Schema, Error: err.Error(), Status: status}) == nil {
		st.send("error") //nolint:errcheck // client gone: nothing left to report to
	}
}

// runeString is string(r). An ASCII rune, as every key of the shipped
// layouts is, converts through a one-byte slice, whose string the
// runtime takes from a static table instead of allocating.
func runeString(r rune) string {
	if 0 <= r && r < utf8.RuneSelf {
		return string([]byte{byte(r)})
	}
	return string(r)
}
