package gpuleak

import (
	"testing"
	"time"

	"gpuleak/internal/attack"
	"gpuleak/internal/exp"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// Figure 25 (§7.6) is the attacker's own computing cost: more than 95% of
// key-press inferences finish within 0.1 ms. It is a wall-clock
// measurement, so it lives here rather than among the sim-time
// experiments of internal/exp.

// fig25Calls is the number of timed inferences: Fig 25's 3,300 presses
// at the experiments' quick scale.
const fig25Calls = 330

// fig25Pool trains the default configuration's model and samples the
// deltas of one session typing 24 random lowercase letters and digits:
// the inputs the timed inferences cycle through.
func fig25Pool(tb testing.TB) (*attack.Model, []trace.Delta) {
	tb.Helper()
	const seed = 20260705 // the quick experiment suite's seed
	cfg := exp.DefaultConfig()
	m, err := exp.TrainModel(cfg, 0, "")
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Seed = seed + 25
	sess := victim.New(cfg)
	text := input.RandomText(sim.NewRand(seed), exp.LowerDigits, 24)
	sess.Run(input.Typing(text, input.Volunteers[0], input.SpeedAny, sim.NewRand(seed+1), 700*sim.Millisecond))
	f, err := sess.Open()
	if err != nil {
		tb.Fatal(err)
	}
	smp, err := attack.NewSampler(f, attack.DefaultInterval)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := smp.Collect(0, sess.End)
	if err != nil {
		tb.Fatal(err)
	}
	ds := tr.Deltas()
	if len(ds) == 0 {
		tb.Fatal("Fig 25 session produced no deltas")
	}
	return m, ds
}

// fig25Sink keeps the timed calls' results live.
var fig25Sink attack.Verdict

// inferenceTimes times n ClassifyDenoised calls, the online engine's
// per-delta inference, cycling through ds, and returns each call's wall
// time in milliseconds.
func inferenceTimes(m *attack.Model, ds []trace.Delta, n int) []float64 {
	times := make([]float64, n)
	for i := range times {
		v := ds[i%len(ds)].V
		start := time.Now()
		fig25Sink = m.ClassifyDenoised(v)
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return times
}

// fracUnder returns the fraction of times below limitMs.
func fracUnder(times []float64, limitMs float64) float64 {
	n := 0
	for _, t := range times {
		if t < limitMs {
			n++
		}
	}
	return float64(n) / float64(len(times))
}

// TestFig25InferenceBudget holds Fig 25's claim with slack for shared
// runners and the race detector: at least 0.90 of the inferences finish
// within 0.1 ms (the paper reports more than 0.95).
func TestFig25InferenceBudget(t *testing.T) {
	m, ds := fig25Pool(t)
	times := inferenceTimes(m, ds, fig25Calls)
	f := fracUnder(times, 0.1)
	if f < 0.90 {
		t.Errorf("only %.3f of inferences under 0.1 ms (paper >0.95)", f)
	}
	t.Logf("%d inferences: %.3f under 0.1 ms, p95 %.4f ms", len(times), f, stats.Percentile(times, 95))
}

// BenchmarkFig25InferenceTime times b.N inferences over Fig 25's pool and
// reports their p95 and the fraction under 0.1 ms.
func BenchmarkFig25InferenceTime(b *testing.B) {
	m, ds := fig25Pool(b)
	b.ResetTimer()
	times := inferenceTimes(m, ds, b.N)
	b.StopTimer()
	b.ReportMetric(stats.Percentile(times, 95), "p95_ms")
	b.ReportMetric(fracUnder(times, 0.1), "frac_under_0.1ms")
}
