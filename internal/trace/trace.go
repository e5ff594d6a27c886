// Package trace holds performance counter traces: timestamped samples of
// the 11 selected counters, delta extraction (the "PC value changes" the
// paper classifies), feature vectors, and CSV persistence for offline
// analysis.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"gpuleak/internal/adreno"
	"gpuleak/internal/sim"
)

// Width is the dimensionality of the shared feature space. Every side
// channel maps its observations into this fixed-width container: the KGSL
// channel fills all Width dimensions with the Table-1 counters, narrower
// channels fill a leading prefix and leave the rest zero. Distance on a
// dimension that is zero in both operands contributes nothing, so the
// fixed width costs narrow channels no discriminative power.
const Width = adreno.NumSelected

// Raw is one raw counter read in the shared feature space, the uint64
// counterpart of Vec. Channel probes return it from ReadSelected.
type Raw = [Width]uint64

// Vec is one observation in the attack's feature space: the per-counter
// change between two reads, in adreno.Selected (Table-1) order for the
// KGSL channel, channel-defined for others.
type Vec [adreno.NumSelected]float64

// Add returns v + o.
func (v Vec) Add(o Vec) Vec {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o.
func (v Vec) Sub(o Vec) Vec {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v * f.
func (v Vec) Scale(f float64) Vec {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Dist returns the weighted Euclidean distance to o. A nil-like zero
// weight is treated as 1.
func (v Vec) Dist(o Vec, w Vec) float64 {
	var ss float64
	for i := range v {
		wi := w[i]
		if wi == 0 {
			wi = 1
		}
		d := (v[i] - o[i]) * wi
		ss += d * d
	}
	return math.Sqrt(ss)
}

// Clamped returns w with every zero weight replaced by 1, the rule Dist
// applies to its weights. DistSqWithin takes its weights clamped this way.
func (w Vec) Clamped() Vec {
	for i := range w {
		if w[i] == 0 {
			w[i] = 1
		}
	}
	return w
}

// DistSqWithin returns the squared weighted distance between v and o,
// adding Dist's terms in Dist's order with w already Clamped, so that
// math.Sqrt of a completed sum equals Dist. It reports false, with the
// partial sum, as soon as that sum reaches bound: every term is
// non-negative, so the full sum could only be larger. A NaN sum never
// reaches a bound.
func DistSqWithin(v, o, w *Vec, bound float64) (float64, bool) {
	var ss float64
	for i := range v {
		d := (v[i] - o[i]) * w[i]
		ss += d * d
		if ss >= bound {
			return ss, false
		}
	}
	return ss, true
}

// Norm returns the weighted Euclidean norm.
func (v Vec) Norm(w Vec) float64 { return v.Dist(Vec{}, w) }

// IsZero reports whether every component is zero.
func (v Vec) IsZero() bool { return v == Vec{} }

// Ones returns an all-ones weight vector.
func Ones() Vec {
	var v Vec
	for i := range v {
		v[i] = 1
	}
	return v
}

// Sample is one read of all selected counters.
type Sample struct {
	At     sim.Time
	Values [adreno.NumSelected]uint64
}

// Trace is a time-ordered series of counter samples.
type Trace struct {
	Interval sim.Time
	Samples  []Sample
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Delta is one non-zero counter change between consecutive samples,
// stamped with the time of the later sample.
type Delta struct {
	At sim.Time
	V  Vec
	// Gap is the time between the two samples the delta spans. In a
	// fault-free trace it equals the polling interval; a larger gap means
	// ticks were dropped or late and the delta may aggregate several
	// distinct screen events — the online engine's gap-aware segmentation
	// keys off it.
	Gap sim.Time
}

// Deltas extracts the non-zero changes between consecutive samples — the
// "PC value changes" of §3.4. Samples with no change produce nothing,
// matching the flat segments of Figure 5. The result is allocated once,
// at its final length.
func (t *Trace) Deltas() []Delta {
	n := 0
	for i := 1; i < len(t.Samples); i++ {
		if t.changed(i) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Delta, 0, n)
	for i := 1; i < len(t.Samples); i++ {
		if !t.changed(i) {
			continue
		}
		cur, prev := &t.Samples[i], &t.Samples[i-1]
		d := Delta{At: cur.At, Gap: cur.At - prev.At}
		for j := range d.V {
			d.V[j] = float64(cur.Values[j]) - float64(prev.Values[j])
		}
		out = append(out, d)
	}
	return out
}

// changed reports whether any counter moves from sample i-1 to sample i,
// by the float difference Deltas records.
func (t *Trace) changed(i int) bool {
	cur, prev := &t.Samples[i].Values, &t.Samples[i-1].Values
	if *cur == *prev {
		return false // the common flat poll, settled without conversions
	}
	for j := range cur {
		if float64(cur[j])-float64(prev[j]) != 0 {
			return true
		}
	}
	return false
}

// CounterSeries extracts the raw time series of one counter by its index
// in adreno.Selected.
func (t *Trace) CounterSeries(idx int) ([]sim.Time, []uint64) {
	ts := make([]sim.Time, len(t.Samples))
	vs := make([]uint64, len(t.Samples))
	for i, s := range t.Samples {
		ts[i] = s.At
		vs[i] = s.Values[idx]
	}
	return ts, vs
}

// WriteCSV persists the trace with a header of counter string identifiers.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, adreno.NumSelected+1)
	header = append(header, "time_us")
	for _, k := range adreno.Selected {
		s, _ := adreno.CounterString(k)
		header = append(header, s)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, adreno.NumSelected+1)
	for _, s := range t.Samples {
		row[0] = strconv.FormatInt(int64(s.At), 10)
		for i, v := range s.Values {
			row[i+1] = strconv.FormatUint(v, 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. A CSV without sample rows
// is an error: every parsed trace holds at least one sample.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if len(rows[0]) != adreno.NumSelected+1 {
		return nil, fmt.Errorf("trace: want %d columns, got %d", adreno.NumSelected+1, len(rows[0]))
	}
	if len(rows) == 1 {
		return nil, fmt.Errorf("trace: csv has a header but no samples")
	}
	t := &Trace{}
	for _, row := range rows[1:] {
		var s Sample
		at, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad timestamp %q: %w", row[0], err)
		}
		s.At = sim.Time(at)
		for i := 0; i < adreno.NumSelected; i++ {
			v, err := strconv.ParseUint(row[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad value %q: %w", row[i+1], err)
			}
			s.Values[i] = v
		}
		t.Samples = append(t.Samples, s)
	}
	return t, nil
}
