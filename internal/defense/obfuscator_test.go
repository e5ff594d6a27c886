package defense

// Tests of the device-level §9 mechanisms: RBACPolicy's allowlist, and
// NoiseObfuscator's monotone, seeded, amplitude-scaled
// injected work and its GPU cost model.

import (
	"errors"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/sim"
)

func TestRBACDeniesUntrustedApp(t *testing.T) {
	p := NewRBACPolicy()
	ctx := kgsl.UntrustedApp(77)
	k := adreno.CounterKey{Group: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := p.AllowPerfcounterRead(ctx, k); !errors.Is(err, kgsl.ErrPerm) {
		t.Fatalf("untrusted app allowed: %v", err)
	}
}

func TestRBACAllowsProfiler(t *testing.T) {
	p := NewRBACPolicy()
	ctx := kgsl.ProcContext{PID: 1, UID: 2000, SELinuxContext: "u:r:shell:s0"}
	k := adreno.CounterKey{Group: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := p.AllowPerfcounterRead(ctx, k); err != nil {
		t.Fatalf("shell denied: %v", err)
	}
}

func TestObfuscatorMonotone(t *testing.T) {
	o := &NoiseObfuscator{Amplitude: 0.5, Seed: 42}
	k := adreno.Selected[0]
	base := uint64(1_000_000)
	prev := uint64(0)
	for ts := sim.Time(0); ts < 2*sim.Second; ts += 7 * sim.Millisecond {
		v := o.Obfuscate(k, base, ts)
		if v < prev {
			t.Fatalf("obfuscated counter decreased at %v", ts)
		}
		if v < base {
			t.Fatal("obfuscation removed real work")
		}
		prev = v
	}
	if prev == base {
		t.Fatal("no noise injected over 2 s")
	}
}

func TestObfuscatorDeterministic(t *testing.T) {
	a := &NoiseObfuscator{Amplitude: 0.5, Seed: 1}
	b := &NoiseObfuscator{Amplitude: 0.5, Seed: 1}
	k := adreno.Selected[3]
	for ts := sim.Time(0); ts < sim.Second; ts += 8 * sim.Millisecond {
		if a.Obfuscate(k, 5, ts) != b.Obfuscate(k, 5, ts) {
			t.Fatal("same-seed obfuscators diverge")
		}
	}
	c := &NoiseObfuscator{Amplitude: 0.5, Seed: 2}
	same := true
	for ts := sim.Time(0); ts < sim.Second; ts += 8 * sim.Millisecond {
		if a.Obfuscate(k, 5, ts) != c.Obfuscate(k, 5, ts) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produce identical noise")
	}
}

func TestObfuscatorZeroAmplitudeIdentity(t *testing.T) {
	o := &NoiseObfuscator{Amplitude: 0}
	k := adreno.Selected[0]
	if o.Obfuscate(k, 123, sim.Second) != 123 {
		t.Fatal("zero-amplitude obfuscator not identity")
	}
}

func TestObfuscatorUnknownCounterIdentity(t *testing.T) {
	o := &NoiseObfuscator{Amplitude: 1, Seed: 3}
	k := adreno.CounterKey{Group: adreno.GroupSP, Countable: 0}
	if o.Obfuscate(k, 99, sim.Second) != 99 {
		t.Fatal("unselected counter obfuscated")
	}
}

func TestObfuscatorScalesWithAmplitude(t *testing.T) {
	noise := func(amp float64) uint64 {
		o := &NoiseObfuscator{Amplitude: amp, Seed: 7}
		return o.Obfuscate(adreno.Selected[0], 0, 10*sim.Second)
	}
	lo := noise(0.1)
	hi := noise(1.0)
	if hi <= lo {
		t.Fatalf("amplitude not scaling: %d vs %d", lo, hi)
	}
}

func TestGPUCostTradeoff(t *testing.T) {
	small := (&NoiseObfuscator{Amplitude: 0.1}).GPUCostFraction()
	big := (&NoiseObfuscator{Amplitude: 2}).GPUCostFraction()
	if small <= 0 || big <= small || big > 1 {
		t.Fatalf("cost model wrong: %v, %v", small, big)
	}
}
