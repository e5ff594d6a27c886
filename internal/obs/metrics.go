package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// DefaultBuckets are the fixed histogram bucket boundaries, shared by
// every histogram in the registry. Fixed global boundaries (rather than
// per-histogram config) keep snapshots pure functions of the observed
// values — two processes that observe the same samples emit the same
// bucket counts — which is what lets benchcmp's -metrics-only gate treat
// bucket series as deterministic data.
// The boundaries are tuned for sim-time latencies in milliseconds but
// apply to every histogram; an implicit +Inf bucket catches overflow.
var DefaultBuckets = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000,
}

// exemplar is the trace-correlated sample retained for one bucket: the
// largest value observed in that bucket, with the trace id that produced
// it. Ties break toward the lexicographically smaller trace id so the
// retained exemplar is a pure function of the observation set, never of
// arrival order.
type exemplar struct {
	v     float64
	trace string
}

// histogram is a streaming summary plus fixed-boundary bucket counts:
// count/sum/min/max for the bench report, per-bucket counts for RED
// latency analysis, and one exemplar per finite bucket for trace
// correlation. buckets has len(DefaultBuckets)+1 entries; the last is
// the +Inf overflow bucket.
type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  []int64
	ex       []exemplar
}

// bucketIndex returns the index of the bucket v falls into: the first
// boundary >= v, or the overflow index len(DefaultBuckets).
func bucketIndex(v float64) int {
	for i, b := range DefaultBuckets {
		if v <= b {
			return i
		}
	}
	return len(DefaultBuckets)
}

// bucketLabel renders one boundary the way snapshot keys and prom `le`
// labels spell it ("2.5", "1000").
func bucketLabel(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Metrics is the counters/histograms registry. One registry is shared by
// a tracer and all of its children, and by design every operation is an
// order-independent aggregation (sums, counts, min/max, bucket counts;
// exemplar ties break by value then trace id), so concurrent workers
// never make a snapshot scheduling-dependent. A nil *Metrics is disabled
// and every method no-ops.
type Metrics struct {
	mu    sync.Mutex
	count map[string]int64
	hist  map[string]*histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{count: map[string]int64{}, hist: map[string]*histogram{}}
}

// Add increments a named counter.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.count[name] += delta
	m.mu.Unlock()
}

// Observe records one sample into a named histogram.
func (m *Metrics) Observe(name string, v float64) {
	m.ObserveExemplar(name, v, "")
}

// ObserveExemplar records one sample and, when trace is non-empty,
// offers it as the exemplar for the bucket it falls into. A bucket keeps
// the largest sample seen (ties: smaller trace id), so the exposed
// exemplar points at the trace of the bucket's worst latency.
func (m *Metrics) ObserveExemplar(name string, v float64, trace string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hist[name]
	if h == nil {
		h = &histogram{
			min:     v,
			max:     v,
			buckets: make([]int64, len(DefaultBuckets)+1),
			ex:      make([]exemplar, len(DefaultBuckets)),
		}
		m.hist[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := bucketIndex(v)
	h.buckets[i]++
	if trace != "" && i < len(h.ex) {
		e := &h.ex[i]
		if e.trace == "" || v > e.v || (v == e.v && trace < e.trace) {
			e.v, e.trace = v, trace
		}
	}
	m.mu.Unlock()
}

// Counter reads one counter's current value.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count[name]
}

// Snapshot flattens the registry into a sorted-key map: counters under
// their own name, histograms under <name>.count/.sum/.mean/.min/.max
// plus one cumulative bucket series <name>_bucket_le_<boundary> (count
// of samples <= boundary; the +Inf bucket is <name>.count itself). The
// map is what benchpaper -json embeds in the gpuleak-bench/v1 report, so
// the bucket series sits under the same determinism gate as the scalars.
func (m *Metrics) Snapshot() map[string]float64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.count)+(5+len(DefaultBuckets))*len(m.hist))
	for k, v := range m.count {
		out[k] = float64(v)
	}
	for k, h := range m.hist {
		out[k+".count"] = float64(h.count)
		out[k+".sum"] = h.sum
		if h.count > 0 {
			out[k+".mean"] = h.sum / float64(h.count)
		}
		out[k+".min"] = h.min
		out[k+".max"] = h.max
		cum := int64(0)
		for i, b := range DefaultBuckets {
			cum += h.buckets[i]
			out[k+"_bucket_le_"+bucketLabel(b)] = float64(cum)
		}
	}
	return out
}

// WriteSnapshotJSON renders any snapshot-shaped map (metric name → value)
// as one sorted-key JSON object; callers may fold extra gauges into a
// Snapshot before rendering.
func WriteSnapshotJSON(w io.Writer, snap map[string]float64) error {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, k := range keys {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s\n  %q: %s", sep, k,
			strconv.FormatFloat(snap[k], 'g', -1, 64)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}
