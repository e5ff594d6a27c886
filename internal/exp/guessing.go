package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunGuessing quantifies §7.1's remark that "such single errors in
// inference could be addressed with a small number of guesses": accuracy
// at k guesses, where candidates substitute runner-up keys at the
// least-confident positions first.
func RunGuessing(o Options) (*Result, error) {
	res := newResult("guessing", "§7.1: credential recovery with k guesses",
		"k", "accuracy@k")

	cfg := DefaultConfig()
	m, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(300)
	rng := sim.NewRand(o.Seed + 71)

	ks := []int{1, 2, 5, 10, 20, 50}
	hits := make([]int, len(ks))
	for si := 0; si < per; si++ {
		text := input.RandomText(rng, LowerDigits, 12)
		seed := o.Seed + int64(si)*607
		c := cfg
		c.Seed = seed
		sess := victim.New(c)
		sess.Run(input.Typing(text, input.Volunteers[si%5], input.SpeedAny,
			sim.NewRand(seed^0xAB), 700*sim.Millisecond))
		f, err := sess.Open()
		if err != nil {
			return nil, err
		}
		r, err := attack.New(m).Eavesdrop(f, 0, sess.End)
		if err != nil {
			return nil, err
		}
		rank := attack.GuessRank(r.Keys, sess.TypedText(), ks[len(ks)-1])
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
