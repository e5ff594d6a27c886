package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MetricsSchema identifies the gpuleak-metrics/v1 report: the merged
// fleet aggregate gpuleakstat emits after scraping router + replicas.
const MetricsSchema = "gpuleak-metrics/v1"

// PromContentType is the Content-Type of the ?format=prom rendering of
// /metrics (the Prometheus text exposition version).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsReport is the gpuleak-metrics/v1 document: per-target raw
// snapshots, the fleet-merged snapshot, per-endpoint RED rollups, and
// whether every target answered healthy.
type MetricsReport struct {
	Schema  string                `json:"schema"`
	Targets []TargetMetrics       `json:"targets"`
	Fleet   map[string]float64    `json:"fleet"`
	RED     map[string]REDSummary `json:"red,omitempty"`
	Pass    bool                  `json:"pass"`
}

// TargetMetrics is one scraped process: its /metrics snapshot plus the
// health probe outcome.
type TargetMetrics struct {
	URL     string             `json:"url"`
	Role    string             `json:"role"`
	Healthy bool               `json:"healthy"`
	Error   string             `json:"error,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// REDSummary is the request/error/duration rollup for one endpoint (or
// the whole fleet): request and error counts with the derived rate, and
// latency quantiles estimated from the cumulative bucket series. All
// durations are simulated milliseconds — the serving stack is
// wall-clock-free by policy.
type REDSummary struct {
	Requests  float64 `json:"requests"`
	Errors    float64 `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	P50MS     float64 `json:"p50_ms,omitempty"`
	P90MS     float64 `json:"p90_ms,omitempty"`
	P99MS     float64 `json:"p99_ms,omitempty"`
	MaxMS     float64 `json:"max_ms,omitempty"`
}

// BucketSeries is one histogram's cumulative bucket view, reconstructed
// from the flat snapshot keys a /metrics scrape returns.
type BucketSeries struct {
	Bounds []float64 // finite boundaries, ascending
	Cum    []float64 // cumulative count of samples <= the boundary
	Count  float64   // total sample count (the implicit +Inf bucket)
}

// snapshotBucketSep is the infix Snapshot uses for bucket keys:
// <hist-name>_bucket_le_<boundary>.
const snapshotBucketSep = "_bucket_le_"

// HistogramFromSnapshot reassembles the named histogram's cumulative
// bucket series from a flat snapshot map; ok is false when the snapshot
// holds no such histogram.
func HistogramFromSnapshot(snap map[string]float64, name string) (BucketSeries, bool) {
	count, ok := snap[name+".count"]
	if !ok {
		return BucketSeries{}, false
	}
	bs := BucketSeries{Count: count}
	prefix := name + snapshotBucketSep
	for k, v := range snap {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		b, err := strconv.ParseFloat(k[len(prefix):], 64)
		if err != nil {
			continue
		}
		bs.Bounds = append(bs.Bounds, b)
		bs.Cum = append(bs.Cum, v)
	}
	sort.Sort(&bucketSort{&bs})
	return bs, true
}

type bucketSort struct{ bs *BucketSeries }

func (s *bucketSort) Len() int           { return len(s.bs.Bounds) }
func (s *bucketSort) Less(i, j int) bool { return s.bs.Bounds[i] < s.bs.Bounds[j] }
func (s *bucketSort) Swap(i, j int) {
	s.bs.Bounds[i], s.bs.Bounds[j] = s.bs.Bounds[j], s.bs.Bounds[i]
	s.bs.Cum[i], s.bs.Cum[j] = s.bs.Cum[j], s.bs.Cum[i]
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket the rank falls into, Prometheus histogram_quantile
// style. Samples beyond the last finite boundary clamp to that boundary.
// A series with no samples reports 0.
func (bs BucketSeries) Quantile(q float64) float64 {
	if bs.Count <= 0 || len(bs.Bounds) == 0 {
		return 0
	}
	rank := q * bs.Count
	prevBound, prevCum := 0.0, 0.0
	for i, cum := range bs.Cum {
		if cum >= rank {
			width := bs.Bounds[i] - prevBound
			inBucket := cum - prevCum
			if inBucket <= 0 {
				return bs.Bounds[i]
			}
			return prevBound + width*(rank-prevCum)/inBucket
		}
		prevBound, prevCum = bs.Bounds[i], cum
	}
	return bs.Bounds[len(bs.Bounds)-1]
}

// MergeSnapshots folds one flat snapshot into an accumulator with the
// right aggregation per key shape: .min keys take the minimum, .max the
// maximum, everything else (counters, .count, .sum, bucket series) sums;
// .mean keys are dropped and recomputed from the merged .sum/.count so a
// fleet merge never averages averages.
func MergeSnapshots(dst, src map[string]float64) {
	for k, v := range src {
		switch {
		case strings.HasSuffix(k, ".mean"):
			continue
		case strings.HasSuffix(k, ".min"):
			if cur, ok := dst[k]; !ok || v < cur {
				dst[k] = v
			}
		case strings.HasSuffix(k, ".max"):
			if cur, ok := dst[k]; !ok || v > cur {
				dst[k] = v
			}
		default:
			dst[k] += v
		}
	}
	for k, count := range dst {
		if !strings.HasSuffix(k, ".count") || count <= 0 {
			continue
		}
		base := strings.TrimSuffix(k, ".count")
		if sum, ok := dst[base+".sum"]; ok {
			dst[base+".mean"] = sum / count
		}
	}
}

// promFloat renders a sample value the way the text exposition expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromName sanitizes a dotted metric name into the Prometheus namespace:
// gpuleak_ prefix, every non-alphanumeric rune flattened to '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 8)
	b.WriteString("gpuleak_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the registry in Prometheus/OpenMetrics text
// exposition: counters and gauges as single samples, histograms as
// cumulative le-labelled bucket series (with trace-id exemplars on
// buckets that hold one) plus _sum and _count. Extra gauges let callers
// fold point-in-time values (queue depths, resident sessions) into the
// same scrape. Output is sorted by name, so identical registries render
// byte-identically.
func (m *Metrics) WriteProm(w io.Writer, gauges map[string]float64) error {
	type histCopy struct {
		name string
		h    histogram
	}
	var counters []string
	var hists []histCopy
	countVal := map[string]int64{}
	if m != nil {
		m.mu.Lock()
		for k, v := range m.count {
			counters = append(counters, k)
			countVal[k] = v
		}
		for k, h := range m.hist {
			c := *h
			c.buckets = append([]int64(nil), h.buckets...)
			c.ex = append([]exemplar(nil), h.ex...)
			hists = append(hists, histCopy{k, c})
		}
		m.mu.Unlock()
	}
	sort.Strings(counters)
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	gaugeNames := make([]string, 0, len(gauges))
	for k := range gauges {
		gaugeNames = append(gaugeNames, k)
	}
	sort.Strings(gaugeNames)

	for _, k := range gaugeNames {
		n := PromName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(gauges[k])); err != nil {
			return err
		}
	}
	for _, k := range counters {
		n := PromName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, countVal[k]); err != nil {
			return err
		}
	}
	for _, hc := range hists {
		n := PromName(hc.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range DefaultBuckets {
			cum += hc.h.buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d", n, bucketLabel(b), cum); err != nil {
				return err
			}
			if e := hc.h.ex[i]; e.trace != "" {
				if _, err := fmt.Fprintf(w, " # {trace_id=%q} %s", e.trace, promFloat(e.v)); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			n, hc.h.count, n, promFloat(hc.h.sum), n, hc.h.count); err != nil {
			return err
		}
	}
	return nil
}
