package proccount

import (
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// tick is the channel's 8 ms polling period.
const tick = 8 * sim.Millisecond

// typedSession runs a short typing script on the default device.
func typedSession(t *testing.T) *victim.Session {
	t.Helper()
	sess := victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 5})
	sess.Run(input.Typing("hunter2", input.Volunteers[0], input.SpeedAny, sim.NewRand(5), 700*sim.Millisecond))
	if len(sess.GPU.Frames()) == 0 {
		t.Fatal("session submitted no frames")
	}
	return sess
}

// TestTickReads polls two probes on one session at every tick: they read
// identically, no dimension ever decreases (and each one moves), and
// the entries past Dims stay 0.
func TestTickReads(t *testing.T) {
	sess := typedSession(t)
	a, b := NewProbe(sess), NewProbe(sess)
	prev, _ := a.ReadSelected(0)
	grew := make([]bool, Dims)
	for at := sim.Time(0); at <= sess.End+tick; at += tick {
		cur, err := a.ReadSelected(at)
		if err != nil {
			t.Fatal(err)
		}
		if other, _ := b.ReadSelected(at); other != cur {
			t.Fatalf("probes disagree at %v: %v vs %v", at, cur, other)
		}
		for i := range cur {
			switch {
			case i >= Dims && cur[i] != 0:
				t.Fatalf("entry %d reads %d at %v, want 0", i, cur[i], at)
			case i < Dims && cur[i] < prev[i]:
				t.Fatalf("dim %d fell from %d to %d at %v", i, prev[i], cur[i], at)
			case i < Dims && cur[i] > prev[i]:
				grew[i] = true
			}
		}
		prev = cur
	}
	for i, g := range grew {
		if !g {
			t.Errorf("dim %d never moved over the session", i)
		}
	}
}

func TestReadBeforeFirstFrameIsBootBase(t *testing.T) {
	sess := typedSession(t)
	p := NewProbe(sess)
	first := sess.GPU.Frames()[0].Start
	for _, f := range sess.GPU.Frames() {
		first = min(first, f.Start)
	}
	base := [Dims]uint64{2000000, 2000211, 2000422, 2000633}
	for _, at := range []sim.Time{first - tick, first - 1} {
		r, _ := p.ReadSelected(at)
		if [Dims]uint64(r[:Dims]) != base {
			t.Errorf("read at %v = %v, want the boot base %v", at, r[:Dims], base)
		}
	}
	if r, _ := p.ReadSelected(first); [Dims]uint64(r[:Dims]) == base {
		t.Errorf("the first frame's submission at %v left the counters at the boot base", first)
	}
}
