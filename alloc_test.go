package gpuleak

import (
	"context"
	"testing"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/serve"
)

// TestWarmPathAllocs is the measured allocation gate of the library hot
// path. Allocation counts are deterministic, so a change that adds
// per-session or per-tick allocations fails here instead of drifting in
// a benchmark. Every path runs warm: the model is trained and the
// frame-stats memo holds every frame the script renders. The per-stage
// rows re-sample one session, re-extract its deltas and replay them
// through the engine, segmentation and classify calls; a ceiling of 0
// pins a stage to no allocation at all.
func TestWarmPathAllocs(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 13}
	m, err := TrainWith(cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	script := TypeText("hunter2pass", 13)
	ctx := context.Background()

	sess := NewVictim(cfg)
	sess.Run(script)
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSamplerOn(f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect(0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	ds := tr.Deltas()
	if len(ds) == 0 {
		t.Fatal("warm session produced no deltas")
	}

	b := serve.NewBatcher(1, 0, 16, obs.NewMetrics())
	defer b.Close()
	next := 0

	for _, c := range []struct {
		name    string
		ceiling float64
		// runs is 1000 for the batcher: under -race sync.Pool drops one
		// Put in four and each refill allocates 3 times, so only a long
		// run keeps the truncated mean (0.75) at 0, while a real
		// per-call allocation still reads 1.
		runs int
		run  func()
	}{
		{"eavesdrop", 62, 10, func() {
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
		{"victim session", 38, 10, func() { NewVictim(cfg).Run(script) }},
		{"Sampler.Collect", 3, 10, func() {
			if _, err := s.Collect(0, sess.End); err != nil {
				t.Fatal(err)
			}
		}},
		{"Trace.Deltas", 1, 10, func() { tr.Deltas() }},
		{"Model.Classify", 0, 10, func() {
			for _, d := range ds {
				m.Classify(d.V)
			}
		}},
		{"Model.ClassifyDenoised", 0, 10, func() {
			for _, d := range ds {
				m.ClassifyDenoised(d.V)
			}
		}},
		{"Batcher.Classify", 0, 1000, func() {
			d := ds[next%len(ds)]
			next++
			b.Classify(0, m, d.At, d.V)
		}},
		{"Engine.ProcessAll", 20, 10, func() {
			attack.NewEngine(m, attack.DefaultInterval, OnlineOptions{}).ProcessAll(ds)
		}},
		{"SegmentTrace", 60, 10, func() {
			attack.SegmentTrace(m, ds, attack.DefaultInterval, OnlineOptions{})
		}},
	} {
		c.run()
		if got := testing.AllocsPerRun(c.runs, c.run); got > c.ceiling {
			t.Errorf("warm %s: %.0f allocations per run, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("warm %s: %.0f allocations per run (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
}
