package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/sim"
)

func timeAt(v int64) sim.Time { return sim.Time(v) }

func TestVecOps(t *testing.T) {
	var a, b Vec
	a[0], a[1] = 3, 4
	b[0] = 1
	if got := a.Add(b); got[0] != 4 || got[1] != 4 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got[0] != 2 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got[1] != 8 {
		t.Fatalf("Scale = %v", got)
	}
	if d := a.Dist(Vec{}, Ones()); math.Abs(d-5) > 1e-9 {
		t.Fatalf("Dist = %v", d)
	}
	if !(Vec{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestVecWeightedDist(t *testing.T) {
	var a Vec
	a[3] = 10
	var w Vec
	w[3] = 0.1
	// Other weights zero -> treated as 1, but those dims are equal anyway.
	if d := a.Dist(Vec{}, w); math.Abs(d-1) > 1e-9 {
		t.Fatalf("weighted dist = %v", d)
	}
}

func mkTrace() *Trace {
	tr := &Trace{Interval: 8000}
	add := func(at int64, v0 uint64) {
		var s Sample
		s.At = timeAt(at)
		for i := range s.Values {
			s.Values[i] = 1000 + uint64(i)*10
		}
		s.Values[0] = v0
		tr.Samples = append(tr.Samples, s)
	}
	add(0, 100)
	add(8000, 100)  // no change
	add(16000, 150) // +50
	add(24000, 150) // no change
	add(32000, 175) // +25
	return tr
}

func TestDeltasSkipFlatSegments(t *testing.T) {
	tr := mkTrace()
	ds := tr.Deltas()
	if len(ds) != 2 {
		t.Fatalf("delta count = %d, want 2", len(ds))
	}
	if ds[0].V[0] != 50 || ds[1].V[0] != 25 {
		t.Fatalf("delta values = %v, %v", ds[0].V[0], ds[1].V[0])
	}
	if ds[0].At != timeAt(16000) {
		t.Fatalf("delta time = %v", ds[0].At)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mkTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ") {
		t.Fatal("CSV header missing counter names")
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), tr.Len())
	}
	for i := range tr.Samples {
		if back.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty csv accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("wrong column count accepted")
	}
	header := "time_us" + strings.Repeat(",c", adreno.NumSelected) + "\n"
	bad := header + "xx" + strings.Repeat(",1", adreno.NumSelected) + "\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("bad timestamp accepted")
	}
	if _, err := ReadCSV(strings.NewReader(header)); err == nil {
		t.Fatal("header-only csv (no samples) accepted")
	}
}
