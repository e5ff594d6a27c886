package attack

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/fault"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/sim"
)

// TestBackoffAt pins the sim-time backoff schedule: 250 µs doubling up
// to a 2 ms cap. Every wait is a sim.Time — the schedule never touches a
// wall clock.
func TestBackoffAt(t *testing.T) {
	for _, tc := range []struct {
		retry int
		want  sim.Time
	}{
		{0, 250 * sim.Microsecond},
		{1, 500 * sim.Microsecond},
		{2, sim.Millisecond},
		{3, 2 * sim.Millisecond},
		{10, 2 * sim.Millisecond},
	} {
		if got := backoffAt(tc.retry); got != tc.want {
			t.Errorf("backoffAt(%d) = %v, want %v", tc.retry, got, tc.want)
		}
	}
	// A tick fits every attempt: the budget, not the deadline, ends it.
	var waits sim.Time
	for i := 0; i < retryAttempts-1; i++ {
		waits += backoffAt(i)
	}
	if waits >= DefaultInterval {
		t.Errorf("%d attempts wait %v, not inside one %v tick", retryAttempts, waits, DefaultInterval)
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
// revocation recovery is observable. A good read returns the next 11
// values of one increasing sequence (read 0 returns 1…11), so every
// counter grows on every good read; a failed or wrapped read consumes
// none of the sequence.
type flakyFile struct {
	reads       int
	failReads   map[int]error // read index -> injected error
	wrapReads   map[int]bool  // read index -> a truncated read: every counter 0
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
	if f.wrapReads[i] {
		return zero, nil
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
	s, err := NewSamplerTaxonomy(f, DefaultInterval, true, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.CollectContext(context.Background(), 0, 80*sim.Millisecond)
	if err != nil {
		t.Fatalf("collect with retries: %v", err)
	}
	if s.Stats.Retries != 3 {
		t.Errorf("Stats.Retries = %d, want 3", s.Stats.Retries)
	}
	if s.Stats.DroppedTicks != 0 {
		t.Errorf("Stats.DroppedTicks = %d, want 0 (all retries within budget)", s.Stats.DroppedTicks)
	}
	if tr.Reads != s.Stats.Ticks {
		t.Errorf("trace has %d reads for %d ticks", tr.Reads, s.Stats.Ticks)
	}
	if !s.Stats.Degraded() {
		t.Error("a retried collection must report Degraded")
	}
}

// TestSamplerWrapCheckStoresReRead pins the wrap check against the
// sampler's previous read: a read that regresses below it is re-read
// after one backoff and counted in WrappedRetries, and the tick's delta
// is taken from the re-read values, not the regressed ones.
func TestSamplerWrapCheckStoresReRead(t *testing.T) {
	f := &flakyFile{wrapReads: map[int]bool{3: true}}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, true, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.CollectContext(context.Background(), 0, 80*sim.Millisecond)
	if err != nil {
		t.Fatalf("collect across a wrapped read: %v", err)
	}
	if s.Stats.WrappedRetries != 1 || s.Stats.DroppedTicks != 0 {
		t.Errorf("Stats = %+v, want 1 wrapped retry and no dropped tick", s.Stats)
	}
	ds := tr.Deltas()
	if tr.Reads != s.Stats.Ticks || len(ds) != tr.Reads-1 {
		t.Fatalf("trace has %d reads and %d deltas for %d ticks", tr.Reads, len(ds), s.Stats.Ticks)
	}
	// Reads 0–2 returned 1…33; read 4 re-reads tick 3 and returns 34…44.
	// Had the regressed read (all 0) been kept, tick 3's delta would be
	// negative and tick 4's would jump by 45…55.
	d := ds[2]
	if want := 3*DefaultInterval + backoffAt(0); d.At != want || d.Gap != want-2*DefaultInterval {
		t.Errorf("tick 3's delta at %v with gap %v, want %v after one backoff, gap %v",
			d.At, d.Gap, want, want-2*DefaultInterval)
	}
	for _, d := range ds {
		for j, v := range d.V {
			if v != adreno.NumSelected {
				t.Fatalf("delta at %v moves counter %d by %v, want %d (one re-read per tick)", d.At, j, v, adreno.NumSelected)
			}
		}
	}
}

// TestSamplerExhaustedTickLeavesGap pins a tick that runs out of
// attempts, whether on device errors or on wrapped reads: it leaves no
// read, not even a partly written one, and the next delta's Gap spans
// the lost tick.
func TestSamplerExhaustedTickLeavesGap(t *testing.T) {
	// Reads 3 to 3+retryAttempts-1 are tick 3's attempts.
	busy, wrapped := map[int]error{}, map[int]bool{}
	for i := 3; i < 3+retryAttempts; i++ {
		busy[i], wrapped[i] = kgsl.ErrBusy, true
	}
	for _, c := range []struct {
		name string
		f    *flakyFile
	}{
		{"busy", &flakyFile{failReads: busy}},
		{"wrapped", &flakyFile{wrapReads: wrapped}},
	} {
		s, err := NewSamplerTaxonomy(c.f, DefaultInterval, true, fault.Taxonomy{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.CollectContext(context.Background(), 0, 80*sim.Millisecond)
		if err != nil {
			t.Fatalf("%s: collect: %v", c.name, err)
		}
		if s.Stats.DroppedTicks != 1 || tr.Reads != s.Stats.Ticks-1 || s.Stats.Retries != retryAttempts-1 {
			t.Fatalf("%s: %d reads, %d dropped of %d ticks, %+v; want tick 3 alone dropped after %d attempts",
				c.name, tr.Reads, s.Stats.DroppedTicks, s.Stats.Ticks, s.Stats, retryAttempts)
		}
		ds := tr.Deltas()
		if len(ds) != tr.Reads-1 {
			t.Fatalf("%s: %d deltas from %d reads", c.name, len(ds), tr.Reads)
		}
		// The read after tick 3's attempts is tick 4's, 34…44, and its
		// delta is taken against tick 2's 23…33. A failed attempt's
		// counters (all 0) kept as the base would make it 34…44.
		if d := ds[2]; d.At != 4*DefaultInterval {
			t.Errorf("%s: the delta after the gap is at %v, want tick 4 at %v", c.name, d.At, 4*DefaultInterval)
		}
		for _, d := range ds {
			want := DefaultInterval
			if d.At == 4*DefaultInterval {
				want = 2 * DefaultInterval
			}
			if d.Gap != want {
				t.Errorf("%s: delta at %v spans %v, want %v", c.name, d.At, d.Gap, want)
			}
			if d.V[0] != adreno.NumSelected || d.V[adreno.NumSelected-1] != adreno.NumSelected {
				t.Errorf("%s: delta at %v = %v, want every counter up by %d", c.name, d.At, d.V, adreno.NumSelected)
			}
		}
	}
}

// TestSamplerReReservesAfterRevocation pins the ErrNotReserved path: the
// sampler re-issues PERFCOUNTER_GET and resumes reading.
func TestSamplerReReservesAfterRevocation(t *testing.T) {
	f := &flakyFile{revokeAt: 4}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, true, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CollectContext(context.Background(), 0, 80*sim.Millisecond); err != nil {
		t.Fatalf("collect across a revocation: %v", err)
	}
	if s.Stats.ReReservations != 1 {
		t.Errorf("Stats.ReReservations = %d, want 1", s.Stats.ReReservations)
	}
	if f.reserves < 2 {
		t.Errorf("device saw %d reservations, want the initial one plus a recovery", f.reserves)
	}
}

// TestSamplerZeroPolicyIsFatal pins the legacy contract: with Retry off
// the first device error aborts the collection with a typed *SampleError
// wrapping the sentinel.
func TestSamplerZeroPolicyIsFatal(t *testing.T) {
	f := &flakyFile{failReads: map[int]error{2: kgsl.ErrBusy}}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, false, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.CollectContext(context.Background(), 0, 80*sim.Millisecond)
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
// maxBadTicks consecutive losses instead of silently returning a trace
// of gaps.
func TestSamplerMaxBadTicksAbandons(t *testing.T) {
	// Every read after the first tick's fails.
	f := &flakyFile{failReads: map[int]error{}}
	for i := 1; i <= (maxBadTicks+2)*retryAttempts; i++ {
		f.failReads[i] = kgsl.ErrBusy
	}
	s, err := NewSamplerTaxonomy(f, DefaultInterval, true, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.CollectContext(context.Background(), 0, (maxBadTicks+2)*DefaultInterval)
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
	if s.Stats.DroppedTicks != maxBadTicks+1 || f.reads != 1+(maxBadTicks+1)*retryAttempts {
		t.Errorf("gave up after %d dropped ticks and %d reads, want %d and %d",
			s.Stats.DroppedTicks, f.reads, maxBadTicks+1, 1+(maxBadTicks+1)*retryAttempts)
	}
}

// TestSamplerReserveRetries pins start-up recovery: a busy initial
// PERFCOUNTER_GET is retried with Retry on, and with it off it fails
// with a typed reserve error.
func TestSamplerReserveRetries(t *testing.T) {
	f := &flakyFile{failReserve: kgsl.ErrBusy}
	_, err := NewSamplerTaxonomy(f, DefaultInterval, false, fault.Taxonomy{})
	var se *SampleError
	if !errors.As(err, &se) || se.Op != "reserve" {
		t.Fatalf("no-retry reserve failure = %v, want *SampleError{Op: reserve}", err)
	}

	// With retry, the reservation succeeds once the device frees up.
	n := 0
	g := &gatedReserveFile{flakyFile: &flakyFile{}, failures: 2, count: &n}
	s, err := NewSamplerTaxonomy(g, DefaultInterval, true, fault.Taxonomy{})
	if err != nil {
		t.Fatalf("reserve with retry: %v", err)
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
