// Package obs is the repo's deterministic telemetry layer: structured
// events, hierarchical sim-time spans, and a counters/histograms registry
// shared by every layer of the attack pipeline (kgsl ioctls, the sampler,
// the online engine, the offline trainer, the worker pool, and the
// experiment driver).
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every method is nil-safe: a nil *Tracer
//     (or nil *Metrics) turns the whole layer off, and instrumented call
//     sites guard with Enabled() so the off path performs no allocation
//     and no locking.
//
//   - Deterministic when enabled. Events are stamped with sim.Time, never
//     a wall clock, and concurrent writers record into per-task child
//     tracers created in index order by the coordinating goroutine.
//     Events() merges child buffers in creation order and stable-sorts by
//     timestamp, so a fixed seed yields a byte-identical stream at any
//     worker count.
//
// Event names are registered constants: construct them once, at package
// level, with NewName. The gpuvet "obsevent" analyzer enforces both the
// registration discipline and that event timestamps are genuine sim.Time
// values, never wall-clock conversions.
package obs

import (
	"fmt"
	"sort"
	"sync"

	"gpuleak/internal/sim"
)

// Name is a registered telemetry event name. Allocate names with NewName
// in package-level var declarations only.
type Name string

var (
	nameMu  sync.Mutex
	nameSet = map[Name]bool{}
)

// NewName registers an event name. Registering the same name twice is a
// programming error (names are package-level constants, initialized
// once), so it panics.
func NewName(s string) Name {
	n := Name(s)
	nameMu.Lock()
	defer nameMu.Unlock()
	if nameSet[n] {
		panic(fmt.Sprintf("obs: event name %q registered twice", s))
	}
	nameSet[n] = true
	return n
}

// Field is one typed event attribute. Exactly one of Str/Num is active;
// fields keep insertion order so exported streams are reproducible.
type Field struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Str builds a string-valued field.
func Str(k, v string) Field { return Field{Key: k, Str: v} }

// Num builds a numeric field.
func Num(k string, v float64) Field { return Field{Key: k, Num: v, IsNum: true} }

// Int builds an integer-valued numeric field.
func Int(k string, v int) Field { return Num(k, float64(v)) }

// Event is one telemetry record. Dur > 0 marks a completed span
// (rendered as a Chrome "complete" event); Dur == 0 is an instant.
type Event struct {
	At     sim.Time
	Dur    sim.Time
	Name   Name
	Track  string
	Fields []Field
}

// Tracer records events onto one track. A Tracer must only be written by
// a single goroutine; concurrent tasks each record into their own Child,
// created in index order by the coordinating goroutine before the tasks
// start. The zero tracer (nil) is disabled and every method no-ops.
type Tracer struct {
	track   string
	metrics *Metrics

	mu       sync.Mutex
	events   []Event
	children []*Tracer
}

// rootTrack is the track of a New tracer; children replace rather than
// extend it, so top-level child tracks read cleanly ("offline/007", not
// "main/offline/007").
const rootTrack = "main"

// New creates an enabled root tracer with a fresh metrics registry.
func New() *Tracer {
	return &Tracer{track: rootTrack, metrics: NewMetrics()}
}

// Enabled reports whether the tracer records anything; instrumented hot
// paths guard field construction with it so the disabled path allocates
// nothing.
func (t *Tracer) Enabled() bool { return t != nil }

// Track returns the tracer's track name ("" when disabled).
func (t *Tracer) Track() string {
	if t == nil {
		return ""
	}
	return t.track
}

// Metrics returns the registry shared by this tracer and all its
// children (nil when disabled).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Child creates a sub-tracer recording onto its own track and buffer.
// Children must be created by the coordinating goroutine in a
// deterministic order (e.g. task-index order) BEFORE handing them to
// concurrent tasks: Events() merges buffers in creation order, which is
// what keeps the exported stream independent of scheduling.
func (t *Tracer) Child(track string) *Tracer {
	if t == nil {
		return nil
	}
	full := track
	if t.track != rootTrack && t.track != "" {
		full = t.track + "/" + track
	}
	c := &Tracer{track: full, metrics: t.metrics}
	t.mu.Lock()
	t.children = append(t.children, c)
	t.mu.Unlock()
	return c
}

// Emit records an instant event at a simulated timestamp.
func (t *Tracer) Emit(at sim.Time, name Name, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{At: at, Name: name, Track: t.track, Fields: fields})
	t.mu.Unlock()
}

// Span is an in-flight hierarchical span; End completes it. A nil span
// (from a disabled tracer) ignores End.
type Span struct {
	t   *Tracer
	idx int
	at  sim.Time
}

// Start opens a span at a simulated timestamp. The span appears in the
// stream ordered by its start time; nesting is inferred from containment
// (Perfetto renders contained spans as children on the same track).
func (t *Tracer) Start(at sim.Time, name Name, fields ...Field) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	idx := len(t.events)
	t.events = append(t.events, Event{At: at, Name: name, Track: t.track, Fields: fields})
	t.mu.Unlock()
	return &Span{t: t, idx: idx, at: at}
}

// End completes the span at a simulated timestamp. An end before the
// start is clamped to a zero-length span.
func (s *Span) End(at sim.Time) {
	if s == nil {
		return
	}
	dur := at - s.at
	if dur < 0 {
		dur = 0
	}
	s.t.mu.Lock()
	s.t.events[s.idx].Dur = dur
	s.t.mu.Unlock()
}

// AddField appends a field to the span's event (e.g. a result computed
// after Start).
func (s *Span) AddField(f Field) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.events[s.idx].Fields = append(s.t.events[s.idx].Fields, f)
	s.t.mu.Unlock()
}

// Events returns the merged telemetry stream: this tracer's events
// followed by every child's (recursively, in creation order), then
// stable-sorted by timestamp. Because buffer concatenation order is a
// pure function of child creation order — never of goroutine scheduling —
// the result is byte-identical at any worker count.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	t.collect(&out)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

func (t *Tracer) collect(out *[]Event) {
	t.mu.Lock()
	events := t.events
	children := t.children
	t.mu.Unlock()
	*out = append(*out, events...)
	for _, c := range children {
		c.collect(out)
	}
}

// Len returns the number of events recorded by this tracer and its
// children.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.events)
	children := t.children
	t.mu.Unlock()
	for _, c := range children {
		n += c.Len()
	}
	return n
}
