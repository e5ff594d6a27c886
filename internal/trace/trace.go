// Package trace holds performance counter traces as change points: the
// first read of the 11 selected counters, then one Delta for every later
// read that moved a counter (the "PC value changes" the paper classifies,
// §3.4). It also holds the feature vectors deltas live in and the CSV
// persistence of a trace for offline analysis.
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
	Values Raw
}

// Delta is one counter change between a read and the successful read
// before it, stamped with the time of the later read.
type Delta struct {
	At sim.Time
	V  Vec
	// Gap is the time since the previous successful read. In a fault-free
	// trace it equals the polling interval; a larger gap means ticks were
	// dropped or late and the delta may aggregate several distinct screen
	// events — the online engine's gap-aware segmentation keys off it.
	Gap sim.Time
}

// Change writes the per-counter change from prev to cur into v, as the
// float difference float64(cur[i]) - float64(prev[i]), and reports
// whether any counter moved by it. A change below float64 resolution is
// no move, and v is meaningful only when Change reports true.
func Change(v *Vec, cur, prev *Raw) bool {
	if *cur == *prev {
		return false // the common flat poll, settled without conversions
	}
	moved := false
	for i := range cur {
		v[i] = float64(cur[i]) - float64(prev[i])
		if v[i] != 0 {
			moved = true
		}
	}
	return moved
}

// Trace is a counter trace kept as its change points: the first read,
// then a Delta for every later read that moved a counter, by Change's
// rule. A flat poll carries nothing (Figure 5's flat segments), so it is
// only counted in Reads.
type Trace struct {
	// Interval is the polling period the trace was read at.
	Interval sim.Time
	// Reads counts the successful reads, flat ones included.
	Reads int
	// First is the first successful read (zero when Reads is 0); a later
	// read that moved a counter is known by its Delta.
	First  Sample
	deltas []Delta
}

// Append adds the change point of the trace's next read that moved. It
// must come after every delta already in the trace.
func (t *Trace) Append(d Delta) { t.deltas = append(t.deltas, d) }

// Grow makes room for n more deltas, so that the next n appends do not
// reallocate. Like adreno.GPU.Grow it allocates with make, not
// slices.Grow, whose appended make([]T, n) the race build allocates too.
func (t *Trace) Grow(n int) {
	if cap(t.deltas)-len(t.deltas) < n {
		t.deltas = append(make([]Delta, 0, len(t.deltas)+n), t.deltas...)
	}
}

// Deltas returns the trace's change points in time order. The slice is
// the trace's own storage: callers read it and must not modify it.
func (t *Trace) Deltas() []Delta { return t.deltas }

// CSV layout: a first row "interval_us,<µs>,reads,<n>", a header row
// "time_us,gap_us,<counter identifiers>", then one row per stored read.
// The first is the trace's first read, with gap 0 and raw counter
// values; each later row is a read that moved, with the gap since the
// read before it and each counter's change as the shortest decimal that
// parses back to the same float64. The changes, not raw values, are what
// a trace stores, and they rebuild every delta bit for bit.
const (
	csvInterval = "interval_us"
	csvReads    = "reads"
)

// WriteCSV persists the trace in the CSV layout above.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := []string{csvInterval, strconv.FormatInt(int64(t.Interval), 10), csvReads, strconv.Itoa(t.Reads)}
	if err := cw.Write(meta); err != nil {
		return err
	}
	row := make([]string, 0, Width+2)
	row = append(row, "time_us", "gap_us")
	for _, k := range adreno.Selected {
		s, _ := adreno.CounterString(k)
		row = append(row, s)
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	if t.Reads == 0 {
		cw.Flush()
		return cw.Error()
	}
	row[0], row[1] = strconv.FormatInt(int64(t.First.At), 10), "0"
	for i, v := range t.First.Values {
		row[i+2] = strconv.FormatUint(v, 10)
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for _, d := range t.deltas {
		row[0], row[1] = strconv.FormatInt(int64(d.At), 10), strconv.FormatInt(int64(d.Gap), 10)
		for i, v := range d.V {
			row[i+2] = strconv.FormatFloat(v, 'f', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. It rejects a trace without
// a positive interval or without a read, rows whose times do not
// increase, a change row whose gap is not positive or reaches before the
// previous row, and a change row that moves no counter or holds a value
// that is not a finite number.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	meta := rows[0]
	if len(meta) != 4 || meta[0] != csvInterval || meta[2] != csvReads {
		return nil, fmt.Errorf("trace: first row must be %s,<µs>,%s,<n>, got %q", csvInterval, csvReads, meta)
	}
	t := &Trace{}
	interval, err := strconv.ParseInt(meta[1], 10, 64)
	if err != nil || interval <= 0 {
		return nil, fmt.Errorf("trace: bad interval %q: want a positive count of µs", meta[1])
	}
	t.Interval = sim.Time(interval)
	if t.Reads, err = strconv.Atoi(meta[3]); err != nil {
		return nil, fmt.Errorf("trace: bad read count %q: %w", meta[3], err)
	}
	if len(rows) < 2 || len(rows[1]) != Width+2 {
		return nil, fmt.Errorf("trace: want a header of %d columns", Width+2)
	}
	rows = rows[2:]
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: csv has a header but no reads")
	}
	if t.Reads < len(rows) {
		return nil, fmt.Errorf("trace: %d rows but a read count of %d", len(rows), t.Reads)
	}
	if len(rows) > 1 {
		t.deltas = make([]Delta, 0, len(rows)-1)
	}
	var prevAt sim.Time
	for n, row := range rows {
		if len(row) != Width+2 {
			return nil, fmt.Errorf("trace: row %d has %d columns, want %d", n+1, len(row), Width+2)
		}
		v, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad timestamp %q: %w", row[0], err)
		}
		at := sim.Time(v)
		gap, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad gap %q: %w", row[1], err)
		}
		if n == 0 {
			if gap != 0 {
				return nil, fmt.Errorf("trace: the first read has gap %d, want 0", gap)
			}
			t.First.At = at
			for i := range t.First.Values {
				if t.First.Values[i], err = strconv.ParseUint(row[i+2], 10, 64); err != nil {
					return nil, fmt.Errorf("trace: bad counter value %q: %w", row[i+2], err)
				}
			}
			prevAt = at
			continue
		}
		if at <= prevAt {
			return nil, fmt.Errorf("trace: row %d: time %d does not increase past %d", n+1, at, prevAt)
		}
		if gap <= 0 || sim.Time(gap) > at-prevAt {
			return nil, fmt.Errorf("trace: row %d: gap %d is not in (0, %d]", n+1, gap, at-prevAt)
		}
		d := Delta{At: at, Gap: sim.Time(gap)}
		for i := range d.V {
			f, err := strconv.ParseFloat(row[i+2], 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("trace: bad counter change %q: want a finite number", row[i+2])
			}
			d.V[i] = f
		}
		if d.V.IsZero() {
			return nil, fmt.Errorf("trace: row %d moves no counter", n+1)
		}
		t.deltas = append(t.deltas, d)
		prevAt = at
	}
	return t, nil
}
