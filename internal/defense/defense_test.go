package defense

// Tests of the table contract (names are pinned, unique, non-empty and
// "+"-free, unknown names fail with the sentinel, "+" parses into a
// chain), the strength-0 byte-identical passthrough, strength range
// validation, and the per-wrapper behaviors: rate-limit denial
// taxonomy, jitter's monotone snapshot clamp, quantize flooring, rbac
// masking, and TickFault forwarding through every wrapper.

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/channel"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// TestTableNames pins the lookup invariants of the table: names are
// unique, non-empty, and free of the chain separator Get parses.
func TestTableNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range policies {
		name := p.Name()
		if name == "" || strings.Contains(name, "+") || seen[name] {
			t.Errorf("table entry name %q must be unique, non-empty and free of '+'", name)
		}
		seen[name] = true
	}
}

func TestGetUnknown(t *testing.T) {
	for _, name := range []string{"", "scramble", "quantize+scramble"} {
		if _, err := Get(name); !errors.Is(err, ErrUnknownDefense) {
			t.Errorf("Get(%q) = %v, want ErrUnknownDefense", name, err)
		}
	}
}

func TestNamesCoverTheRegisteredSet(t *testing.T) {
	want := []string{"jitter", "noise", "quantize", "ratelimit", "rbac"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		if p, err := Get(name); err != nil || p.Name() != name {
			t.Errorf("Get(%q) = %v, %v", name, p, err)
		}
	}
}

func TestGetChain(t *testing.T) {
	p, err := Get("quantize+jitter")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "quantize+jitter" {
		t.Errorf("chain name %q", p.Name())
	}
	wantCh := []string{channel.DefaultName, "proccount"}
	if !reflect.DeepEqual(p.Channels(), wantCh) {
		t.Errorf("chain channels %v, want %v (sorted union)", p.Channels(), wantCh)
	}
	q, _ := Get("quantize")
	j, _ := Get("jitter")
	if got, want := p.Overhead(0.5), q.Overhead(0.5)+j.Overhead(0.5); got != want {
		t.Errorf("chain overhead %v, want member sum %v", got, want)
	}
}

func TestZeroStrengthIsByteIdenticalPassthrough(t *testing.T) {
	sess := victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 1})
	probe := &fakeProbe{}
	for _, p := range policies {
		inst, err := p.Arm(sess, 0, 7)
		if err != nil {
			t.Fatalf("%s: Arm at strength 0: %v", p.Name(), err)
		}
		if got := inst.WrapProbe(channel.DefaultName, probe); got != channel.Probe(probe) {
			t.Errorf("%s: strength-0 WrapProbe did not return its argument", p.Name())
		}
		if inst.Overhead() != 0 {
			t.Errorf("%s: strength-0 overhead %v, want 0", p.Name(), inst.Overhead())
		}
	}
}

func TestStrengthRange(t *testing.T) {
	sess := victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 1})
	for _, p := range append(slices.Clone(policies), Chain(policies[0], policies[1])) {
		for _, s := range []float64{-0.1, 1.5} {
			if _, err := p.Arm(sess, s, 7); !errors.Is(err, ErrStrength) {
				t.Errorf("%s: Arm(strength=%v) = %v, want ErrStrength", p.Name(), s, err)
			}
		}
		if p.Overhead(1) < 0 || p.Overhead(1) > 1 {
			t.Errorf("%s: Overhead(1) = %v outside [0,1]", p.Name(), p.Overhead(1))
		}
	}
}

func TestAppliesTo(t *testing.T) {
	nz, _ := Get("noise")
	if !slices.Contains(nz.Channels(), channel.DefaultName) {
		t.Error("noise must cover the KGSL channel")
	}
	if slices.Contains(nz.Channels(), "proccount") {
		t.Error("noise is device-level: it must not claim the proccount channel")
	}
	rl, _ := Get("ratelimit")
	if !slices.Contains(rl.Channels(), "proccount") {
		t.Error("ratelimit covers every polled interface, proccount included")
	}
}

func TestMaskedGroupsEscalation(t *testing.T) {
	cases := []struct {
		strength float64
		want     []string
	}{
		{0, []string{}},
		{0.3, []string{"VPC"}},
		{0.5, []string{"RAS", "VPC"}},
		{1, []string{"LRZ", "RAS", "VPC"}},
	}
	for _, c := range cases {
		if got := MaskedGroups(c.strength); !reflect.DeepEqual(got, c.want) {
			t.Errorf("MaskedGroups(%v) = %v, want %v", c.strength, got, c.want)
		}
	}
}

// fakeProbe is a deterministic inner probe: it returns fixed counter
// values and records the snapshot times it was read at.
type fakeProbe struct {
	vals  trace.Raw
	reads []sim.Time
}

func (p *fakeProbe) ReserveSelected(t sim.Time) error { return nil }

func (p *fakeProbe) ReadSelected(t sim.Time) (trace.Raw, error) {
	p.reads = append(p.reads, t)
	return p.vals, nil
}

// faultyProbe is a fakeProbe that also exposes a tick-fault schedule,
// standing in for a fault-plane wrapper beneath the defense.
type faultyProbe struct{ fakeProbe }

func (p *faultyProbe) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	return sim.Time(tick), tick%2 == 1
}

// armWrap arms one table defense at a strength and wraps a probe for
// the KGSL channel.
func armWrap(t *testing.T, name string, strength float64, p channel.Probe) channel.Probe {
	t.Helper()
	pol, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := pol.Arm(victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 1}), strength, 7)
	if err != nil {
		t.Fatal(err)
	}
	return inst.WrapProbe(channel.DefaultName, p)
}

func TestRateLimitDeniesWithBusyTaxonomy(t *testing.T) {
	ch, err := channel.Get(channel.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeProbe{}
	wrapped := armWrap(t, "ratelimit", 1, inner)
	// Strength 1 sustains 4 reads/s with burst 2: the first two reads at
	// t=0 are the burst, the third must be denied with the channel's Busy
	// sentinel so the attacker's retry classification recovers it.
	for i := 0; i < 2; i++ {
		if _, err := wrapped.ReadSelected(0); err != nil {
			t.Fatalf("burst read %d denied: %v", i, err)
		}
	}
	if _, err := wrapped.ReadSelected(0); !errors.Is(err, ch.Taxonomy.Busy) {
		t.Errorf("over-budget read = %v, want the channel's Busy sentinel", err)
	}
	// A read after one period replenishes one token.
	if _, err := wrapped.ReadSelected(sim.Second / 4); err != nil {
		t.Errorf("read after a period denied: %v", err)
	}
}

func TestJitterKeepsSnapshotsMonotone(t *testing.T) {
	inner := &fakeProbe{}
	wrapped := armWrap(t, "jitter", 1, inner)
	for tick := 0; tick < 64; tick++ {
		if _, err := wrapped.ReadSelected(sim.Time(tick) * 8 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	jittered := false
	for i, at := range inner.reads {
		if i > 0 && at <= inner.reads[i-1] {
			t.Fatalf("snapshot %d at %v not after %v: cumulative counters would regress", i, at, inner.reads[i-1])
		}
		if at != sim.Time(i)*8*sim.Millisecond {
			jittered = true
		}
	}
	if !jittered {
		t.Error("strength-1 jitter never moved a snapshot time")
	}
}

func TestQuantizeFloorsToTheGrid(t *testing.T) {
	scale, ok := quantizeScale(channel.DefaultName)
	if !ok {
		t.Fatal("no quantize scale for the default channel")
	}
	inner := &fakeProbe{}
	for i := range inner.vals {
		inner.vals[i] = 1000003 + uint64(i)
	}
	wrapped := armWrap(t, "quantize", 1, inner)
	vals, err := wrapped.ReadSelected(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		q := 1 + scale[i]
		if v%q != 0 {
			t.Errorf("dim %d: %d not on the strength-1 grid (quantum %d)", i, v, q)
		}
		if v > inner.vals[i] {
			t.Errorf("dim %d: quantized %d above raw %d: flooring must never round up", i, v, inner.vals[i])
		}
	}
}

// scriptedProbe returns its reads in turn, each with its error.
type scriptedProbe struct {
	vals []trace.Raw
	errs []error
	next int
}

func (p *scriptedProbe) ReserveSelected(t sim.Time) error { return nil }

func (p *scriptedProbe) ReadSelected(t sim.Time) (trace.Raw, error) {
	i := p.next
	p.next++
	return p.vals[i], p.errs[i]
}

// TestQuantizeMemoMatchesFloor replays reads that start at zero,
// repeat, change, fail and come back to earlier values: the memoised
// probe must return the floor of every successful read and pass every
// error through. The failed read carries counter values of its own, and
// the next read returns the same values successfully, so a failed read
// that reached the memo would be answered with the floor before it.
func TestQuantizeMemoMatchesFloor(t *testing.T) {
	scale, _ := quantizeScale(channel.DefaultName)
	raw := func(base uint64) trace.Raw {
		var r trace.Raw
		for i := range r {
			r[i] = base*uint64(i+1) + scale[i]/3
		}
		return r
	}
	a, b, x := raw(1000003), raw(2000029), raw(3000017)
	errBusy := errors.New("busy")
	inner := &scriptedProbe{
		vals: []trace.Raw{{}, {}, a, a, b, x, x, a, b, b, {}},
		errs: []error{nil, nil, nil, nil, nil, errBusy, nil, nil, nil, nil, nil},
	}
	wrapped := armWrap(t, "quantize", 0.5, inner)
	q := wrapped.(*quantizedProbe).quantum
	for i, v := range inner.vals {
		want := v
		for j, c := range want {
			want[j] = c - c%q[j]
		}
		got, err := wrapped.ReadSelected(sim.Time(i))
		if err != inner.errs[i] {
			t.Fatalf("read %d: error %v, want %v", i, err, inner.errs[i])
		}
		if err == nil && got != want {
			t.Errorf("read %d: %v, want the floor %v", i, got, want)
		}
	}
}

func TestRBACMasksRestrictedDims(t *testing.T) {
	inner := &fakeProbe{}
	for i := range inner.vals {
		inner.vals[i] = 100 + uint64(i)
	}
	wrapped := armWrap(t, "rbac", 1, inner)
	vals, err := wrapped.ReadSelected(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Errorf("dim %d: strength-1 rbac exported %d, want the constant 0", i, v)
		}
	}
}

func TestWrappersForwardTickFaults(t *testing.T) {
	for _, name := range []string{"jitter", "quantize", "ratelimit", "rbac"} {
		wrapped := armWrap(t, name, 1, &faultyProbe{})
		tf, ok := wrapped.(channel.TickFaults)
		if !ok {
			t.Errorf("%s wrapper hides the inner probe's tick-fault schedule", name)
			continue
		}
		if delay, drop := tf.TickFault(3, 0); delay != 3 || !drop {
			t.Errorf("%s: TickFault(3) = (%v, %v), want forwarded (3, true)", name, delay, drop)
		}
		// A plain inner probe resolves to a clean tick.
		clean := armWrap(t, name, 1, &fakeProbe{}).(channel.TickFaults)
		if delay, drop := clean.TickFault(3, 0); delay != 0 || drop {
			t.Errorf("%s: clean inner probe yielded TickFault (%v, %v)", name, delay, drop)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	if Seed(1, 0) == Seed(1, 1) {
		t.Error("Seed must separate scenarios")
	}
	if Seed(1, 0) != Seed(1, 0) {
		t.Error("Seed must be deterministic")
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Error("Seed must depend on the base seed")
	}
}
