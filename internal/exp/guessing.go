package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunGuessing quantifies §7.1's remark that "such single errors in
// inference could be addressed with a small number of guesses": accuracy
// at k guesses, where candidates substitute runner-up keys at the
// least-confident positions first.
func RunGuessing(o Options) (*Result, error) {
	res := newResult("guessing", "§7.1: credential recovery with k guesses",
		"k", "accuracy@k")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(300)
	rng := sim.NewRand(o.Seed + 71)

	trials := make([]trial, per)
	for si := range trials {
		t := kgslTrial(cfg, m)
		t.cfg.Seed = o.Seed + int64(si)*607
		t.script = input.Typing(input.RandomText(rng, LowerDigits, 12), input.Volunteers[si%5],
			input.SpeedAny, sim.NewRand(t.cfg.Seed^0xAB), 700*sim.Millisecond)
		trials[si] = t
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}

	ks := []int{1, 2, 5, 10, 20, 50}
	hits := make([]int, len(ks))
	for _, r := range recs {
		rank := attack.GuessRank(r.out.Result.Keys, r.truth, ks[len(ks)-1])
		for ki, k := range ks {
			if rank > 0 && rank <= k {
				hits[ki]++
			}
		}
	}
	for ki, k := range ks {
		acc := float64(hits[ki]) / float64(per)
		res.Table.AddRow(fmt.Sprintf("%d", k), stats.Pct(acc))
		res.Metrics[fmt.Sprintf("acc@%d", k)] = acc
	}
	return res, nil
}
