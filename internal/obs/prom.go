package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the ?format=prom rendering of
// /metrics (the Prometheus text exposition version).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

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
