package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpuleak/internal/sim"
)

// Test-local registered names (package-level, per the obsevent contract).
var (
	tnAlpha = NewName("test.alpha")
	tnBeta  = NewName("test.beta")
	tnSpan  = NewName("test.span")
	tnTask  = NewName("test.task")
)

// TestNilTracerIsSafe pins the disabled path: every method on a nil
// tracer, span, and metrics registry must be a no-op, because production
// code only guards the field-construction work, not the calls.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims to be enabled")
	}
	tr.Emit(5*sim.Millisecond, tnAlpha, Str("k", "v"))
	sp := tr.Start(0, tnSpan)
	sp.End(sim.Second)
	sp.AddField(Num("x", 1))
	if c := tr.Child("sub"); c != nil {
		t.Fatal("nil tracer produced a live child")
	}
	if tr.Events() != nil || tr.Len() != 0 || tr.Track() != "" {
		t.Fatal("nil tracer holds events")
	}
	var m *Metrics
	m.Add("c", 1)
	m.Observe("h", 2)
	if m.Counter("c") != 0 || m.Snapshot() != nil {
		t.Fatal("nil metrics registry recorded something")
	}
	if tr.Metrics() != nil {
		t.Fatal("nil tracer returned a live metrics registry")
	}
}

// TestSpanAndOrdering checks span durations, track stamping, and that
// Events() orders by timestamp with stable ties.
func TestSpanAndOrdering(t *testing.T) {
	tr := New()
	sp := tr.Start(10*sim.Millisecond, tnSpan, Str("what", "outer"))
	tr.Emit(30*sim.Millisecond, tnBeta)
	tr.Emit(20*sim.Millisecond, tnAlpha)
	sp.End(50 * sim.Millisecond)
	sp.AddField(Int("samples", 3))

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != tnSpan || evs[0].Dur != 40*sim.Millisecond {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if evs[1].Name != tnAlpha || evs[2].Name != tnBeta {
		t.Fatalf("events not time-ordered: %v %v", evs[1].Name, evs[2].Name)
	}
	for _, e := range evs {
		if e.Track != "main" {
			t.Fatalf("root event on track %q, want main", e.Track)
		}
	}
	if got := evs[0].Fields[len(evs[0].Fields)-1]; got.Key != "samples" || got.Num != 3 {
		t.Fatalf("AddField lost: %+v", evs[0].Fields)
	}
}

// TestChildTracks pins the track-naming scheme: top-level children drop
// the "main" prefix, nested children compose with "/".
func TestChildTracks(t *testing.T) {
	tr := New()
	c := tr.Child("exp/fig17")
	g := c.Child("trial/003")
	if c.Track() != "exp/fig17" {
		t.Fatalf("child track %q", c.Track())
	}
	if g.Track() != "exp/fig17/trial/003" {
		t.Fatalf("grandchild track %q", g.Track())
	}
	if c.Metrics() != tr.Metrics() || g.Metrics() != tr.Metrics() {
		t.Fatal("children do not share the root metrics registry")
	}
}

// TestMergeDeterministicAcrossWorkers is the layer's core guarantee: a
// fan-out over pre-created child tracers exports a byte-identical JSONL
// stream at any worker count, even though tasks run on racing goroutines.
func TestMergeDeterministicAcrossWorkers(t *testing.T) {
	stream := func(workers int) []byte {
		tr := New()
		const n = 24
		children := make([]*Tracer, n)
		for i := range children {
			children[i] = tr.Child(fmt.Sprintf("task/%03d", i))
		}
		// Inline work-stealing fan-out (the parallel package imports obs,
		// so the test reimplements its index-addressed loop to avoid the
		// import cycle while exercising the same racing-writer shape).
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					sp := children[i].Start(sim.Time(i)*sim.Millisecond, tnTask, Int("task", i))
					children[i].Emit(sim.Time(i)*sim.Millisecond+500, tnAlpha, Int("task", i))
					sp.End(sim.Time(i+2) * sim.Millisecond)
					tr.Metrics().Add("tasks", 1)
				}
			}()
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := stream(1)
	for _, w := range []int{4, 8} {
		if got := stream(w); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d stream differs from serial (%d vs %d bytes)", w, len(got), len(serial))
		}
	}
}

// TestMetricsSnapshot exercises counters and histogram summaries.
func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Add("reads", 3)
	m.Add("reads", 2)
	m.Observe("depth", 4)
	m.Observe("depth", 1)
	m.Observe("depth", 7)
	snap := m.Snapshot()
	if snap["reads"] != 5 {
		t.Fatalf("counter: %v", snap["reads"])
	}
	if snap["depth.count"] != 3 || snap["depth.sum"] != 12 || snap["depth.min"] != 1 || snap["depth.max"] != 7 {
		t.Fatalf("histogram summary wrong: %+v", snap)
	}
	if snap["depth.mean"] != 4 {
		t.Fatalf("histogram mean: %v", snap["depth.mean"])
	}
	if m.Counter("reads") != 5 {
		t.Fatalf("Counter accessor: %d", m.Counter("reads"))
	}
}

// TestMetricsConcurrent hammers the registry from many goroutines; run
// with -race this doubles as the locking test.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Add("n", 1)
				m.Observe("v", float64(i))
			}
		}()
	}
	wg.Wait()
	if m.Counter("n") != 4000 {
		t.Fatalf("lost counter increments: %d", m.Counter("n"))
	}
	if m.Snapshot()["v.count"] != 4000 {
		t.Fatalf("lost observations: %v", m.Snapshot()["v.count"])
	}
}

// TestNameRegistry checks duplicate registration panics and lookups.
func TestNameRegistry(t *testing.T) {
	if !nameSet[tnAlpha] {
		t.Fatal("registered name not found")
	}
	if nameSet[Name("test.never-registered")] {
		t.Fatal("unregistered name reported as registered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate NewName did not panic")
		}
	}()
	NewName("test.alpha")
}

// TestChromeTrace sanity-checks the Perfetto export: valid JSON shape,
// thread metadata for each track, X phases for spans.
func TestChromeTrace(t *testing.T) {
	tr := New()
	sp := tr.Start(sim.Millisecond, tnSpan)
	sp.End(3 * sim.Millisecond)
	tr.Child("task/000").Emit(2*sim.Millisecond, tnAlpha, Str("r", "a"))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		`"traceEvents":[`,
		`"ph":"M"`, `"name":"thread_name"`, `"name":"main"`, `"name":"task/000"`,
		`"ph":"X"`, `"dur":2000`,
		`"ph":"i"`, `"s":"t"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("chrome trace missing %s in:\n%s", want, s)
		}
	}
}
