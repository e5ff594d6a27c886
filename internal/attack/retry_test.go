package attack

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/fault"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/sim"
)

// TestBackoffAt pins the sim-time backoff schedule: exponential from
// Backoff by BackoffFactor, capped at MaxBackoff, with zero fields
// falling back to the documented defaults. Every wait is a sim.Time —
// the schedule never touches a wall clock.
func TestBackoffAt(t *testing.T) {
	def := DefaultRetryPolicy()
	custom := RetryPolicy{
		MaxAttempts: 5, Backoff: 100 * sim.Microsecond,
		BackoffFactor: 3, MaxBackoff: sim.Millisecond,
	}
	cases := []struct {
		name   string
		policy RetryPolicy
		retry  int
		want   sim.Time
	}{
		{"default first", def, 0, 250 * sim.Microsecond},
		{"default doubles", def, 1, 500 * sim.Microsecond},
		{"default doubles again", def, 2, sim.Millisecond},
		{"default hits cap", def, 3, 2 * sim.Millisecond},
		{"default stays capped", def, 10, 2 * sim.Millisecond},
		{"zero policy defaults first", RetryPolicy{}, 0, 250 * sim.Microsecond},
		{"zero policy defaults cap", RetryPolicy{}, 7, 2 * sim.Millisecond},
		{"custom factor first", custom, 0, 100 * sim.Microsecond},
		{"custom factor triples", custom, 1, 300 * sim.Microsecond},
		{"custom factor triples again", custom, 2, 900 * sim.Microsecond},
		{"custom factor capped", custom, 3, sim.Millisecond},
	}
	for _, tc := range cases {
		if got := tc.policy.BackoffAt(tc.retry); got != tc.want {
			t.Errorf("%s: BackoffAt(%d) = %v, want %v", tc.name, tc.retry, got, tc.want)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{kgsl.ErrBusy, true},
		{kgsl.ErrInval, true},
		{kgsl.ErrNotReserved, true},
		{kgsl.ErrClosed, true},
		{ErrWrappedRead, true},
		{fmt.Errorf("reserving: %w", kgsl.ErrBusy), true},
		{kgsl.ErrPerm, false},
		{kgsl.ErrNoEnt, false},
		{errors.New("attack: device busy"), false}, // looks transient, isn't a sentinel
		{nil, false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestSampleError(t *testing.T) {
	se := &SampleError{At: 8 * sim.Millisecond, Op: "read", Attempts: 4, Err: kgsl.ErrBusy}
	if !errors.Is(se, kgsl.ErrBusy) {
		t.Error("SampleError does not unwrap to its kgsl sentinel")
	}
	if !se.Retryable() {
		t.Error("EBUSY SampleError not classified retryable")
	}
	if msg := se.Error(); !strings.Contains(msg, "4 attempts") {
		t.Errorf("multi-attempt message %q does not report the attempt count", msg)
	}
	one := &SampleError{At: 0, Op: "reserve", Attempts: 1, Err: kgsl.ErrPerm}
	if one.Retryable() {
		t.Error("EPERM SampleError classified retryable")
	}
	if msg := one.Error(); strings.Contains(msg, "attempts") {
		t.Errorf("single-attempt message %q mentions attempts", msg)
	}
}

// flakyFile is a scripted DeviceFile for retry tests: reads fail with
// failErr while the script says so, reservations are tracked so
// revocation recovery is observable.
type flakyFile struct {
	reads       int
	failReads   map[int]error // read index -> injected error
	revokeAt    int           // read index that revokes (0 = never)
	reserved    bool
	reserves    int
	failReserve error
	val         uint64
}

func (f *flakyFile) Ioctl(t sim.Time, request uint32, arg any) error { return nil }

func (f *flakyFile) ReserveSelected(t sim.Time) error {
	f.reserves++
	if f.failReserve != nil {
		return f.failReserve
	}
	f.reserved = true
	return nil
}

func (f *flakyFile) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	i := f.reads
	f.reads++
	var zero [adreno.NumSelected]uint64
	if f.revokeAt > 0 && i == f.revokeAt {
		f.reserved = false
	}
	if !f.reserved {
		return zero, kgsl.ErrNotReserved
	}
	if err := f.failReads[i]; err != nil {
		return zero, err
	}
	var v [adreno.NumSelected]uint64
	for j := range v {
		f.val++
		v[j] = f.val
	}
	return v, nil
}

// TestSamplerRetriesTransientErrors pins in-tick recovery: transient
// EBUSY reads are retried with backoff inside the tick budget and the
// collected trace has no gaps.
func TestSamplerRetriesTransientErrors(t *testing.T) {
	f := &flakyFile{failReads: map[int]error{
		1: kgsl.ErrBusy, // second tick, two transient failures in a row
		2: kgsl.ErrBusy,
		7: kgsl.ErrInval,
	}}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, DefaultRetryPolicy(), fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect(0, 80*sim.Millisecond)
	if err != nil {
		t.Fatalf("collect with retries: %v", err)
	}
	if s.Stats.Retries != 3 {
		t.Errorf("Stats.Retries = %d, want 3", s.Stats.Retries)
	}
	if s.Stats.DroppedTicks != 0 {
		t.Errorf("Stats.DroppedTicks = %d, want 0 (all retries within budget)", s.Stats.DroppedTicks)
	}
	if tr.Len() != s.Stats.Ticks {
		t.Errorf("trace has %d samples for %d ticks", tr.Len(), s.Stats.Ticks)
	}
	if !s.Stats.Degraded() {
		t.Error("a retried collection must report Degraded")
	}
}

// TestSamplerReReservesAfterRevocation pins the ErrNotReserved path: the
// sampler re-issues PERFCOUNTER_GET and resumes reading.
func TestSamplerReReservesAfterRevocation(t *testing.T) {
	f := &flakyFile{revokeAt: 4}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, DefaultRetryPolicy(), fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(0, 80*sim.Millisecond); err != nil {
		t.Fatalf("collect across a revocation: %v", err)
	}
	if s.Stats.ReReservations != 1 {
		t.Errorf("Stats.ReReservations = %d, want 1", s.Stats.ReReservations)
	}
	if f.reserves < 2 {
		t.Errorf("device saw %d reservations, want the initial one plus a recovery", f.reserves)
	}
}

// TestSamplerZeroPolicyIsFatal pins the legacy contract: without a retry
// policy the first device error aborts the collection with a typed
// *SampleError wrapping the sentinel.
func TestSamplerZeroPolicyIsFatal(t *testing.T) {
	f := &flakyFile{failReads: map[int]error{2: kgsl.ErrBusy}}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, RetryPolicy{}, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Collect(0, 80*sim.Millisecond)
	var se *SampleError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SampleError", err)
	}
	if se.Op != "read" || !errors.Is(err, kgsl.ErrBusy) {
		t.Fatalf("SampleError %+v, want a read failure wrapping ErrBusy", se)
	}
}

// TestSamplerMaxBadTicksAbandons pins the give-up bound: when every tick
// exhausts its retry budget, the collection fails fatally after
// MaxBadTicks consecutive losses instead of silently returning a trace
// of gaps.
func TestSamplerMaxBadTicksAbandons(t *testing.T) {
	f := &flakyFile{failReserve: nil}
	// Every read after the first tick fails.
	f.failReads = map[int]error{}
	for i := 1; i < 200; i++ {
		f.failReads[i] = kgsl.ErrBusy
	}
	s, err := NewSamplerTaxonomy(f, DefaultInterval,
		RetryPolicy{MaxAttempts: 2, MaxBadTicks: 3}, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Collect(0, 400*sim.Millisecond)
	if err == nil {
		t.Fatal("collection succeeded though every tick failed")
	}
	if !strings.Contains(err.Error(), "consecutive") {
		t.Errorf("fatal error %q does not name the consecutive-tick bound", err)
	}
	var se *SampleError
	if !errors.As(err, &se) {
		t.Errorf("fatal error %v does not wrap a *SampleError", err)
	}
}

// TestSamplerReserveRetries pins start-up recovery: a busy initial
// PERFCOUNTER_GET is retried under the policy, and without one it fails
// with a typed reserve error.
func TestSamplerReserveRetries(t *testing.T) {
	f := &flakyFile{failReserve: kgsl.ErrBusy}
	_, err := NewSamplerTaxonomy(f, DefaultInterval, RetryPolicy{}, fault.Taxonomy{})
	var se *SampleError
	if !errors.As(err, &se) || se.Op != "reserve" {
		t.Fatalf("zero-policy reserve failure = %v, want *SampleError{Op: reserve}", err)
	}

	// With a policy, the reservation succeeds once the device frees up.
	n := 0
	g := &gatedReserveFile{flakyFile: &flakyFile{}, failures: 2, count: &n}
	s, err := NewSamplerTaxonomy(g, DefaultInterval, DefaultRetryPolicy(), fault.Taxonomy{})
	if err != nil {
		t.Fatalf("reserve with retry policy: %v", err)
	}
	if n != 3 {
		t.Errorf("device saw %d reservation attempts, want 3", n)
	}
	if s == nil {
		t.Fatal("nil sampler after successful retry")
	}
}

// gatedReserveFile fails the first N reservations with EBUSY.
type gatedReserveFile struct {
	*flakyFile
	failures int
	count    *int
}

func (g *gatedReserveFile) ReserveSelected(t sim.Time) error {
	*g.count++
	if *g.count <= g.failures {
		return kgsl.ErrBusy
	}
	return g.flakyFile.ReserveSelected(t)
}
