package gpuleak

import (
	"context"
	"testing"
)

// TestWarmPathAllocs is the measured allocation gate of the library hot
// path. Allocation counts are deterministic, so a change that adds
// per-session or per-tick allocations fails here instead of drifting in
// a benchmark. Both paths run warm: the model is trained and the
// frame-stats memo holds every frame the script renders.
func TestWarmPathAllocs(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 13}
	m, err := TrainWith(cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	script := TypeText("hunter2pass", 13)
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"eavesdrop", 150, func() {
			sess := NewVictim(cfg)
			sess.Run(script)
			f, err := sess.Open()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewAttack(m).EavesdropContext(ctx, f, 0, sess.End); err != nil {
				t.Fatal(err)
			}
		}},
		{"victim session", 75, func() { NewVictim(cfg).Run(script) }},
	} {
		c.run()
		if got := testing.AllocsPerRun(10, c.run); got > c.ceiling {
			t.Errorf("warm %s: %.0f allocations per run, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("warm %s: %.0f allocations per run (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
}
