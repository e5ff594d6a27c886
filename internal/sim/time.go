// Package sim provides the simulation foundation shared by every substrate:
// a microsecond-resolution simulated clock and a deterministic random
// source.
//
// All experiments in this repository are driven by simulated time so that
// results are bit-for-bit reproducible for a given seed. No internal
// package reads the wall clock: the attacker's own computation cost
// (Fig 25) is timed by the root package's TestFig25InferenceBudget and
// BenchmarkFig25InferenceTime.
package sim

import "fmt"

// Time is a simulated timestamp in microseconds since the start of the
// simulation. Microsecond resolution comfortably resolves both vsync
// boundaries (8333 us at 120 Hz) and GPU draw durations (hundreds of us).
type Time int64

// Common durations expressed in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Millis reports t as fractional milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1000 }

// Seconds reports t as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// String renders the timestamp with an adaptive unit, e.g. "12.5ms".
func (t Time) String() string {
	switch {
	case t < Millisecond:
		return fmt.Sprintf("%dus", int64(t))
	case t < Second:
		return fmt.Sprintf("%.3gms", t.Millis())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}
