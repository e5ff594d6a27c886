package obs

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"gpuleak/internal/sim"
)

// TestNewTraceDeterministic pins the property the whole propagation
// design rests on: minting from the same seed yields the same ids on any
// process, and different seeds diverge.
func TestNewTraceDeterministic(t *testing.T) {
	a, b := NewTrace(7), NewTrace(7)
	if a != b {
		t.Fatalf("NewTrace(7) not stable: %+v vs %+v", a, b)
	}
	if !a.Valid() {
		t.Fatalf("NewTrace(7) invalid: %+v", a)
	}
	if c := NewTrace(8); c.TraceID == a.TraceID {
		t.Fatalf("seeds 7 and 8 share trace id %s", c.TraceID)
	}
	if (TraceContext{}).Valid() {
		t.Fatal("zero TraceContext reports Valid")
	}
}

// evHexTest is registered once, as names are, so the test below can run
// more than once in a process.
var evHexTest = NewName("tracectx.test.hex")

// TestTraceIDsMatchPrintf pins the hex rendering of minted and derived
// ids to fmt's %016x: a trace id is the seed's first two draws, a span id
// its third, and a child's span id parses back to the value it prints.
func TestTraceIDsMatchPrintf(t *testing.T) {
	for seed := int64(-3); seed < 200; seed++ {
		r := sim.NewRand(seed)
		hi, lo, span := r.Uint64(), r.Uint64(), r.Uint64()
		tc := NewTrace(seed)
		if want := fmt.Sprintf("%016x%016x", hi, lo); tc.TraceID != want {
			t.Fatalf("NewTrace(%d).TraceID = %s, want %s", seed, tc.TraceID, want)
		}
		if want := fmt.Sprintf("%016x", span); tc.SpanID != want {
			t.Fatalf("NewTrace(%d).SpanID = %s, want %s", seed, tc.SpanID, want)
		}
		child := tc.Child(evHexTest, sim.Time(seed))
		v, err := strconv.ParseUint(child.SpanID, 16, 64)
		if err != nil || fmt.Sprintf("%016x", v) != child.SpanID {
			t.Fatalf("child span id %q is not %%016x of its value (%v)", child.SpanID, err)
		}
	}
	if got := string(appendHex64(nil, 0xab)); got != "00000000000000ab" {
		t.Fatalf("appendHex64(0xab) = %q", got)
	}
}

// rejectedTraceparents are malformed header values ParseTraceparent must
// refuse; FuzzParseTraceparent seeds from them too.
var rejectedTraceparents = []string{
	"",
	"00-abc-def-01",
	"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong version
	"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
	"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span id
	"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01", // uppercase hex
	"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0g",
}

// TestTraceparentRoundTrip pins the wire format both ways.
func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTrace(42)
	hdr := tc.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", hdr, len(hdr))
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own rendering", hdr)
	}
	if got.TraceID != tc.TraceID || got.SpanID != tc.SpanID {
		t.Fatalf("round trip lost ids: %+v vs %+v", got, tc)
	}
	if !got.Remote {
		t.Fatal("parsed context not marked Remote")
	}
	if got.Local().Remote || got.Child(NewName("tracectx.test.hop"), 0).Remote {
		t.Fatal("Local/Child failed to clear the Remote mark")
	}

	for _, s := range rejectedTraceparents {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent accepted %q", s)
		}
	}
}

// TestChildSpanDerivation pins that child span ids are pure functions of
// (trace, parent, name, at) — same inputs agree, any input change
// diverges — and that the parent link is recorded.
func TestChildSpanDerivation(t *testing.T) {
	root := NewTrace(7)
	n1 := NewName("tracectx.test.op1")
	n2 := NewName("tracectx.test.op2")

	a := root.Child(n1, 100*sim.Millisecond)
	b := root.Child(n1, 100*sim.Millisecond)
	if a != b {
		t.Fatalf("child derivation not stable: %+v vs %+v", a, b)
	}
	if a.TraceID != root.TraceID {
		t.Fatalf("child changed trace id: %s", a.TraceID)
	}
	if a.ParentID != root.SpanID {
		t.Fatalf("child parent %s, want %s", a.ParentID, root.SpanID)
	}
	if c := root.Child(n2, 100*sim.Millisecond); c.SpanID == a.SpanID {
		t.Fatal("different names share a span id")
	}
	if c := root.Child(n1, 200*sim.Millisecond); c.SpanID == a.SpanID {
		t.Fatal("different timestamps share a span id")
	}
	if c := a.Child(n1, 100*sim.Millisecond); c.SpanID == a.SpanID {
		t.Fatal("different parents share a span id")
	}
}

// TestTraceContextCarrier pins the context.Context plumbing.
func TestTraceContextCarrier(t *testing.T) {
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Fatal("empty context reports a trace")
	}
	tc := NewTrace(7)
	ctx := WithTraceContext(context.Background(), tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceContextFrom = %+v, %v; want %+v, true", got, ok, tc)
	}
	// An invalid context attached upstream must not report ok.
	if _, ok := TraceContextFrom(WithTraceContext(context.Background(), TraceContext{})); ok {
		t.Fatal("invalid trace context reports ok")
	}
}

// TestTraceFieldsAndTrack pins the correlation surface span events carry.
func TestTraceFieldsAndTrack(t *testing.T) {
	root := NewTrace(7)
	if got, want := root.Track(), "trace/"+root.TraceID; got != want {
		t.Fatalf("Track = %q, want %q", got, want)
	}
	f := root.Fields()
	if len(f) != 2 || f[0].Key != "trace_id" || f[1].Key != "span_id" {
		t.Fatalf("root fields = %+v", f)
	}
	child := root.Child(NewName("tracectx.test.fields"), 0)
	cf := child.Fields()
	if len(cf) != 3 || cf[2].Key != "parent_id" || cf[2].Str != root.SpanID {
		t.Fatalf("child fields = %+v", cf)
	}
}
