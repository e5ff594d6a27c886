package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotBucketSeries pins Snapshot's flat-key bucket encoding:
// cumulative counts under <name>_bucket_le_<boundary>, one key per
// fixed boundary, independent of the order of the samples.
func TestSnapshotBucketSeries(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{0.5, 3, 3, 40, 70000} {
		m.Observe("lat", v)
	}
	snap := m.Snapshot()
	if snap["lat_bucket_le_1"] != 1 {
		t.Fatalf("le_1 = %v, want 1", snap["lat_bucket_le_1"])
	}
	if snap["lat_bucket_le_5"] != 3 {
		t.Fatalf("le_5 = %v, want 3 (cumulative)", snap["lat_bucket_le_5"])
	}
	if snap["lat_bucket_le_50"] != 4 {
		t.Fatalf("le_50 = %v, want 4", snap["lat_bucket_le_50"])
	}
	// The overflow sample (70000 > last boundary) appears only in .count.
	if snap["lat_bucket_le_60000"] != 4 || snap["lat.count"] != 5 {
		t.Fatalf("overflow handling: le_60000=%v count=%v", snap["lat_bucket_le_60000"], snap["lat.count"])
	}
	for _, b := range DefaultBuckets {
		if _, ok := snap["lat_bucket_le_"+bucketLabel(b)]; !ok {
			t.Fatalf("missing bucket key for boundary %v", b)
		}
	}
	// Two registries fed the same samples in another order snapshot
	// identically.
	m2 := NewMetrics()
	for _, v := range []float64{70000, 40, 3, 3, 0.5} {
		m2.Observe("lat", v)
	}
	if snap2 := m2.Snapshot(); !reflect.DeepEqual(snap, snap2) {
		t.Fatalf("snapshot order-dependent:\n%v\nvs\n%v", snap, snap2)
	}
}

// TestExemplarRetention pins the deterministic exemplar rule: a bucket
// keeps its largest sample's trace id, ties breaking toward the smaller
// trace id regardless of arrival order.
func TestExemplarRetention(t *testing.T) {
	m := NewMetrics()
	m.ObserveExemplar("lat", 3, "trace-b")
	m.ObserveExemplar("lat", 4, "trace-c") // larger value wins the 2.5–5 bucket
	m.ObserveExemplar("lat", 4, "trace-a") // tie: smaller trace id wins
	m.ObserveExemplar("lat", 80000, "trace-inf")
	var buf bytes.Buffer
	if err := m.WriteProm(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `gpuleak_lat_bucket{le="5"} 3 # {trace_id="trace-a"} 4`) {
		t.Fatalf("exemplar not retained deterministically:\n%s", out)
	}
	if strings.Contains(out, "trace-inf") {
		t.Fatalf("overflow sample produced an exemplar:\n%s", out)
	}
}

// TestWritePromRendering pins the text exposition shape for all three
// families (gauge, counter, histogram) on a small fixed registry.
func TestWritePromRendering(t *testing.T) {
	m := NewMetrics()
	m.Add("serve.eavesdrops", 2)
	m.ObserveExemplar("serve.latency_ms.eavesdrop", 750, "0af7651916cd43dd8448eb211c80319c")
	var buf bytes.Buffer
	if err := m.WriteProm(&buf, map[string]float64{"serve.inflight": 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gpuleak_serve_inflight gauge\ngpuleak_serve_inflight 1\n",
		"# TYPE gpuleak_serve_eavesdrops counter\ngpuleak_serve_eavesdrops 2\n",
		"# TYPE gpuleak_serve_latency_ms_eavesdrop histogram\n",
		`gpuleak_serve_latency_ms_eavesdrop_bucket{le="500"} 0` + "\n",
		`gpuleak_serve_latency_ms_eavesdrop_bucket{le="1000"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 750` + "\n",
		`gpuleak_serve_latency_ms_eavesdrop_bucket{le="+Inf"} 1` + "\n",
		"gpuleak_serve_latency_ms_eavesdrop_sum 750\n",
		"gpuleak_serve_latency_ms_eavesdrop_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom exposition missing %q in:\n%s", want, out)
		}
	}
	// Rendering is deterministic.
	var again bytes.Buffer
	if err := m.WriteProm(&again, map[string]float64{"serve.inflight": 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("prom rendering not byte-stable")
	}
	// A nil registry renders gauges only.
	var nilBuf bytes.Buffer
	var nilM *Metrics
	if err := nilM.WriteProm(&nilBuf, map[string]float64{"up": 1}); err != nil {
		t.Fatal(err)
	}
	if got := nilBuf.String(); got != "# TYPE gpuleak_up gauge\ngpuleak_up 1\n" {
		t.Fatalf("nil registry prom output:\n%s", got)
	}
}
