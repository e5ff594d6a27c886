package exp

import (
	"fmt"
	"math"

	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunFig5 reproduces Figure 5: the PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ counter
// stays flat while the screen is idle and shows a unique, repeatable delta
// for each key press ('w' vs 'n' in the paper).
func RunFig5(o Options) (*Result, error) {
	res := newResult("fig5", "Figure 5: per-key PC deltas (PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ)",
		"key", "press", "delta", "repeatable")

	cfg := DefaultConfig()
	cfg.RenderJitter = 0 // the figure shows a clean lab trace
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	cfg.Seed = o.Seed + 5

	sess := victim.New(cfg)
	// 'w' pressed twice, then 'n' pressed twice, slow cadence.
	script := input.Script{}
	keys := []rune{'w', 'w', 'n', 'n'}
	t := 700 * sim.Millisecond
	for _, r := range keys {
		script.Events = append(script.Events, input.Event{Kind: input.EvPress, R: r, At: t, Dur: 90 * sim.Millisecond})
		t += 600 * sim.Millisecond
	}
	sess.Run(script)

	f, err := sess.Open()
	if err != nil {
		return nil, err
	}
	s, err := attack.NewSampler(f, attack.DefaultInterval)
	if err != nil {
		return nil, err
	}
	tr, err := s.CollectContext(o.Context(), 0, sess.End)
	if err != nil {
		return nil, err
	}

	// Idle flatness: no deltas in the quiet second before typing
	// (excluding the launch frame).
	idleChanges := 0
	for _, d := range tr.Deltas() {
		if d.At > 100*sim.Millisecond && d.At < 650*sim.Millisecond {
			idleChanges++
		}
	}
	res.Metrics["idle_changes"] = float64(idleChanges)

	// Per-press first delta of counter 0.
	deltas := map[rune][]float64{}
	presses := sess.Presses()
	ds := tr.Deltas()
	for i, ev := range presses {
		for _, d := range ds {
			if d.At > ev.At && d.At <= ev.At+40*sim.Millisecond {
				deltas[ev.R] = append(deltas[ev.R], d.V[0])
				res.Table.AddRow(string(ev.R), fmt.Sprintf("#%d", i+1),
					fmt.Sprintf("%.0f", d.V[0]), "")
				break
			}
		}
	}
	for r, vs := range deltas {
		rep := len(vs) == 2 && vs[0] == vs[1]
		res.Metrics["delta_"+string(r)] = vs[0]
		if rep {
			res.Metrics["repeatable_"+string(r)] = 1
		}
	}
	res.Metrics["w_vs_n_differ"] = bool01(deltas['w'][0] != deltas['n'][0])
	return res, nil
}

// RunFig6 reproduces Figure 6: per-key delta clusters in a 2-D slice of
// the counter space (one LRZ and one RAS counter). The figure's message
// is cluster separation; we report scatter coordinates and the minimum
// inter-key separation relative to intra-key spread.
func RunFig6(o Options) (*Result, error) {
	res := newResult("fig6", "Figure 6: per-key clusters (LRZ_FULL_8X8_TILES vs RAS_SUPERTILE_ACTIVE_CYCLES)",
		"key", "lrz_full_8x8", "ras_supertile_cycles")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	type pt struct{ x, y float64 }
	pts := map[rune]pt{}
	for _, r := range "abcdefghijklmnopqrstuvwxyz" {
		c, ok := m.Keys[string(r)]
		if !ok {
			continue
		}
		// Index 1 = FULL_8X8_TILES, index 4 = SUPERTILE_ACTIVE_CYCLES.
		pts[r] = pt{c[1], c[4]}
		res.Table.AddRow(string(r), fmt.Sprintf("%.0f", c[1]), fmt.Sprintf("%.0f", c[4]))
	}

	minSep := math.Inf(1)
	letters := []rune("abcdefghijklmnopqrstuvwxyz")
	for i := 0; i < len(letters); i++ {
		for j := i + 1; j < len(letters); j++ {
			a, b := pts[letters[i]], pts[letters[j]]
			d := math.Hypot(a.x-b.x, a.y-b.y)
			if d < minSep {
				minSep = d
			}
		}
	}
	distinct := map[[2]float64]bool{}
	for _, p := range pts {
		distinct[[2]float64{p.x, p.y}] = true
	}
	res.Metrics["min_2d_separation"] = minSep
	res.Metrics["full_space_min_separation"] = m.MinInterKeyDistance()
	res.Metrics["distinct_letter_clusters"] = float64(len(distinct))
	return res, nil
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var _ = stats.Fmt // keep stats imported for sibling files' style
