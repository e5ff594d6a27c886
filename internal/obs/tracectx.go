package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"

	"gpuleak/internal/sim"
)

// TraceContext identifies one request's position in a distributed trace,
// W3C trace-context style: a 16-byte trace id shared by every span of the
// request and an 8-byte span id per operation. Both ids are minted from
// the request's seeded RNG (never from wall clock or crypto/rand), so a
// fixed request seed yields the same trace id on every process that
// handles it — the router and a failover replica agree on the trace
// without coordination, and exported traces are byte-identical at any
// worker count.
//
// The zero TraceContext is "no trace"; Valid reports false for it.
type TraceContext struct {
	// TraceID is 32 lowercase hex digits, never all-zero.
	TraceID string
	// SpanID is 16 lowercase hex digits, never all-zero.
	SpanID string
	// ParentID is the 16-hex-digit parent span id ("" on a root span).
	ParentID string
	// Remote marks a context parsed off the wire (a traceparent header or
	// SSE comment frame) rather than minted locally: the receiving process
	// records a hop event for it, and Child clears it again.
	Remote bool
}

// traceVersion is the only traceparent version this repo speaks; the
// trailing flags byte is always "sampled" (01) — deterministic traces are
// cheap enough to keep.
const traceVersion = "00"

// NewTrace mints a root trace context from a request seed. The draw uses
// a dedicated sim.Rand so minting never perturbs the attack's own random
// stream, and the mapping seed → ids is pure: every process that derives
// a trace from the same seed gets the same ids.
func NewTrace(seed int64) TraceContext {
	r := sim.NewRand(seed)
	hi, lo := r.Uint64(), r.Uint64()
	if hi|lo == 0 {
		lo = 1 // all-zero trace ids are invalid per W3C
	}
	span := r.Uint64()
	if span == 0 {
		span = 1
	}
	var traceID [32]byte
	var spanID [16]byte
	return TraceContext{
		TraceID: string(appendHex64(appendHex64(traceID[:0], hi), lo)),
		SpanID:  string(appendHex64(spanID[:0], span)),
	}
}

// appendHex64 appends v as 16 lowercase hex digits, zero-padded: what
// fmt's %016x prints.
func appendHex64(b []byte, v uint64) []byte {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], v)
	return hex.AppendEncode(b, raw[:])
}

// Valid reports whether the context carries a usable trace id.
func (tc TraceContext) Valid() bool {
	return len(tc.TraceID) == 32 && len(tc.SpanID) == 16
}

// Child derives the span context of a named sub-operation starting at a
// simulated timestamp. The span id is a pure hash of (trace id, parent
// span id, name, at): any process replaying the same operation derives
// the same id, which is what makes cross-process span trees line up
// without an id-allocation handshake.
func (tc TraceContext) Child(name Name, at sim.Time) TraceContext {
	h := mix64(hashString(tc.TraceID) ^
		rotl64(hashString(tc.SpanID), 17) ^
		rotl64(hashString(string(name)), 31) ^
		uint64(at))
	if h == 0 {
		h = 1
	}
	var id [16]byte
	return TraceContext{
		TraceID:  tc.TraceID,
		SpanID:   string(appendHex64(id[:0], h)),
		ParentID: tc.SpanID,
	}
}

// Local returns the context with the Remote mark cleared, for re-export
// after the hop has been recorded.
func (tc TraceContext) Local() TraceContext {
	tc.Remote = false
	return tc
}

// Track returns the obs track a trace's events record onto. Filtering an
// exported stream by this track yields exactly the request's trace.
func (tc TraceContext) Track() string { return "trace/" + tc.TraceID }

// Fields returns the trace correlation fields attached to span events.
func (tc TraceContext) Fields() []Field {
	f := []Field{Str("trace_id", tc.TraceID), Str("span_id", tc.SpanID)}
	if tc.ParentID != "" {
		f = append(f, Str("parent_id", tc.ParentID))
	}
	return f
}

// Traceparent renders the W3C header value: 00-<trace-id>-<span-id>-01.
func (tc TraceContext) Traceparent() string {
	return traceVersion + "-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value. It accepts only
// version 00 with well-formed, non-zero hex ids; anything else reports
// ok == false (callers then mint a fresh trace).
func ParseTraceparent(s string) (TraceContext, bool) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	if s[:2] != traceVersion {
		return TraceContext{}, false
	}
	traceID, spanID := s[3:35], s[36:52]
	if !isHex(traceID) || !isHex(spanID) || !isHex(s[53:]) {
		return TraceContext{}, false
	}
	if allZero(traceID) || allZero(spanID) {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: traceID, SpanID: spanID, Remote: true}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// mix64 is one splitmix64 round — the same finalizer the sim RNG seeds
// with, reused here for span-id derivation.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rotl64(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// hashString is FNV-1a, inlined to keep the obs package stdlib-light and
// the hash stable across Go releases.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

type traceCtxKey struct{}

// WithTraceContext attaches a trace context to a request context for the
// serve → batcher → attack call chain to read back.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom extracts the trace context attached by
// WithTraceContext; ok is false when none is attached.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}
