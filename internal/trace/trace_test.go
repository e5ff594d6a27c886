package trace

import (
	"bytes"
	"fmt"
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

// fromReads builds a trace from successive reads the way the sampler
// does: the first read, then a delta for each read that moved a counter,
// its gap measured from the read before it.
func fromReads(interval sim.Time, reads []Sample) *Trace {
	tr := &Trace{Interval: interval, Reads: len(reads), First: reads[0]}
	var d Delta
	for i := 1; i < len(reads); i++ {
		if Change(&d.V, &reads[i].Values, &reads[i-1].Values) {
			d.At, d.Gap = reads[i].At, reads[i].At-reads[i-1].At
			tr.Append(d)
		}
	}
	return tr
}

// read is one read at time at with counter 0 at v0 and the others fixed.
func read(at int64, v0 uint64) Sample {
	s := Sample{At: timeAt(at)}
	for i := range s.Values {
		s.Values[i] = 1000 + uint64(i)*10
	}
	s.Values[0] = v0
	return s
}

func mkTrace() *Trace {
	return fromReads(8000, []Sample{
		read(0, 100),
		read(8000, 100),  // no change
		read(16000, 150), // +50
		read(24000, 150), // no change
		read(32000, 175), // +25
	})
}

// faultedTrace is a capture whose ticks were dropped (16 ms, 40 ms) and
// delayed (a read 1.5 ms late), so its gaps differ from the interval.
func faultedTrace() *Trace {
	return fromReads(8000, []Sample{
		read(0, 100),
		read(8000, 140),
		read(25500, 190),
		read(32000, 190),
		read(48000, 1<<60),
	})
}

// TestDeltasSkipFlatSegments pins the change-point rule: a flat read
// yields no delta, a delta's gap runs from the read before it (flat or
// not), and a raw difference below float64 resolution is no change.
func TestDeltasSkipFlatSegments(t *testing.T) {
	tr := mkTrace()
	ds := tr.Deltas()
	if len(ds) != 2 || tr.Reads != 5 {
		t.Fatalf("%d deltas from %d reads, want 2 from 5", len(ds), tr.Reads)
	}
	if ds[0].V[0] != 50 || ds[1].V[0] != 25 {
		t.Fatalf("delta values = %v, %v", ds[0].V[0], ds[1].V[0])
	}
	if ds[0].At != timeAt(16000) || ds[1].At != timeAt(32000) {
		t.Fatalf("delta times = %v, %v", ds[0].At, ds[1].At)
	}
	if ds[0].Gap != 8000 || ds[1].Gap != 8000 {
		t.Fatalf("delta gaps = %v, %v, want 8000 each (from the flat read before)", ds[0].Gap, ds[1].Gap)
	}

	a, b := read(0, 1<<53), read(8000, 1<<53+1)
	var v Vec
	if Change(&v, &b.Values, &a.Values) {
		t.Fatalf("a raw step below float64 resolution counts as a change: %v", v)
	}
}

// sameTrace reports how two traces differ in interval, read count, first
// read or any delta's At, Gap and V bits ("" when they do not).
func sameTrace(a, b *Trace) string {
	if a.Interval != b.Interval || a.Reads != b.Reads || a.First != b.First {
		return fmt.Sprintf("header %v/%d/%v vs %v/%d/%v", a.Interval, a.Reads, a.First, b.Interval, b.Reads, b.First)
	}
	da, db := a.Deltas(), b.Deltas()
	if len(da) != len(db) {
		return fmt.Sprintf("%d deltas vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i].At != db[i].At || da[i].Gap != db[i].Gap {
			return fmt.Sprintf("delta %d at %v gap %v vs at %v gap %v", i, da[i].At, da[i].Gap, db[i].At, db[i].Gap)
		}
		for j := range da[i].V {
			if math.Float64bits(da[i].V[j]) != math.Float64bits(db[i].V[j]) {
				return fmt.Sprintf("delta %d counter %d: %v vs %v", i, j, da[i].V[j], db[i].V[j])
			}
		}
	}
	return ""
}

// TestCSVRoundTrip pins the format: the interval and read count come
// first, then the header, the first read and one row per change point,
// and reading back rebuilds the trace bit for bit, gaps of dropped and
// delayed ticks and changes beyond 2^53 included.
func TestCSVRoundTrip(t *testing.T) {
	for name, tr := range map[string]*Trace{"clean": mkTrace(), "faulted": faultedTrace()} {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if want := fmt.Sprintf("interval_us,8000,reads,%d", tr.Reads); lines[0] != want {
			t.Fatalf("%s: first line %q, want %q", name, lines[0], want)
		}
		if !strings.HasPrefix(lines[1], "time_us,gap_us,PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ") {
			t.Fatalf("%s: header %q lacks the counter names", name, lines[1])
		}
		if len(lines) != 3+len(tr.Deltas()) {
			t.Fatalf("%s: %d lines for %d deltas, want the first read and one row per delta", name, len(lines), len(tr.Deltas()))
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameTrace(tr, back); diff != "" {
			t.Fatalf("%s: round trip differs: %s", name, diff)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	meta := "interval_us,8000,reads,9\n"
	header := "time_us,gap_us" + strings.Repeat(",c", adreno.NumSelected) + "\n"
	first := "0,0" + strings.Repeat(",1", adreno.NumSelected) + "\n"
	change := func(at, gap string) string { return at + "," + gap + strings.Repeat(",2", adreno.NumSelected) + "\n" }
	for _, c := range []struct{ name, doc string }{
		{"empty csv", ""},
		{"a missing interval", header + first},
		{"an interval of 0", "interval_us,0,reads,9\n" + header + first},
		{"a bad read count", "interval_us,8000,reads,x\n" + header + first},
		{"a wrong column count", meta + "a,b\n1,2\n"},
		{"a bad timestamp", meta + header + "xx,0" + strings.Repeat(",1", adreno.NumSelected) + "\n"},
		{"a header but no reads", meta + header},
		{"fewer reads than rows", "interval_us,8000,reads,1\n" + header + first + change("8000", "8000")},
		{"a first read with a gap", meta + header + "0,8000" + strings.Repeat(",1", adreno.NumSelected) + "\n"},
		{"a time that does not increase", meta + header + first + change("8000", "8000") + change("8000", "8000")},
		{"a gap of 0", meta + header + first + change("8000", "0")},
		{"a negative gap", meta + header + first + change("8000", "-8000")},
		{"a gap reaching before the previous row", meta + header + first + change("8000", "16000")},
		{"a change row that moves nothing", meta + header + first + "8000,8000" + strings.Repeat(",0", adreno.NumSelected) + "\n"},
		{"a change that is not finite", meta + header + first + "8000,8000,NaN" + strings.Repeat(",2", adreno.NumSelected-1) + "\n"},
		{"a short row", meta + header + first + "8000,8000,2\n"},
	} {
		if _, err := ReadCSV(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := ReadCSV(strings.NewReader(meta + header + first + change("8000", "8000"))); err != nil {
		t.Fatalf("a valid trace rejected: %v", err)
	}
}
