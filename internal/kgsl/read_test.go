package kgsl_test

import (
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// saltObfuscator perturbs each value by a function of counter and time,
// so a read that paired the wrong counter or time with a value shows.
type saltObfuscator struct{}

func (saltObfuscator) Obfuscate(k adreno.CounterKey, v uint64, t sim.Time) uint64 {
	return v ^ uint64(k.Group)<<40 ^ uint64(k.Countable)<<32 ^ uint64(t)%977
}

// TestReadSelectedMatchesCounterValue pins the one-snapshot block read:
// at every 8 ms sampler tick of a victim session, each entry equals the
// obfuscated per-counter CounterValue at that tick, and a read allocates
// nothing.
func TestReadSelectedMatchesCounterValue(t *testing.T) {
	sess := victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 5, RenderJitter: 0.004})
	sess.Run(input.Typing("Hunter2 pass", input.Volunteers[0], input.SpeedAny, sim.NewRand(5), 500*sim.Millisecond))
	obf := saltObfuscator{}
	sess.Device.SetObfuscator(obf)
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	gpu := sess.Device.GPU()
	for at := sim.Time(0); at <= sess.End; at += 8 * sim.Millisecond {
		got, err := f.ReadSelected(at)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range adreno.Selected {
			if want := obf.Obfuscate(k, gpu.CounterValue(k, at), at); got[i] != want {
				t.Fatalf("t=%v %v: ReadSelected %d, CounterValue %d", at, k, got[i], want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = f.ReadSelected(sess.End / 2) }); n != 0 {
		t.Fatalf("ReadSelected allocates %v times per read, want 0", n)
	}
}
