package attack

import (
	"sort"

	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// Multi-channel fusion (decision level). Two channels observe the same
// victim timeline with complementary failure modes: the primary (KGSL)
// channel resolves individual keys but its ioctl path is what fault
// planes and mitigations starve; a secondary OS-counter channel cannot
// tell keys of the same popup-geometry family apart but keeps observing
// while the primary loses ticks. The fusion rules below are pure
// functions of the two finished single-channel runs (plus the primary's
// raw delta stream), so a fused result is as deterministic as its
// inputs.

// Fusion's fixed parameters. Its time windows come from the primary's
// polling interval (windowsFor): detections align within the engine's
// gap tolerance, and a nearby key within Ti (dedupWindow) is the same
// press's popup or echo redraw seen from the other side, not a missed
// key.
const (
	// relaxCth widens the primary model's acceptance threshold during
	// family-restricted recovery: with the candidate set cut to one
	// popup-geometry family by the secondary channel, a laxer distance
	// bound no longer risks cross-family confusion.
	relaxCth = 2.0
	// familyEps bounds the weighted distance under the secondary model
	// within which two key centroids count as indistinguishable — members
	// of one family (exact collisions only).
	familyEps = 1e-6
)

// FusionResult is the outcome of fusing two single-channel runs.
type FusionResult struct {
	// Primary and Secondary are the single-channel results the fusion
	// consumed, unchanged.
	Primary   *Result
	Secondary *Result
	// Fused is the merged result. Its Model and Stats come from the
	// primary run; Degraded is the OR of both runs.
	Fused *Result
	// Recovered counts keys inserted on secondary evidence; Flipped
	// counts primary verdicts flipped to their alternate.
	Recovered int
	Flipped   int
}

// Fuse merges a finished primary run with a finished secondary run.
// pm/sm are the two channels' models, pds the primary trace's deltas
// (the sub-threshold evidence pool for recovery), and interval the
// primary polling period the windows scale from.
//
// Two rules, applied per secondary detection in time order:
//
//   - Flip: a primary key whose best guess the secondary's family
//     contradicts — and whose runner-up it endorses — takes the
//     runner-up. On a fault-free primary the best guess and the
//     secondary family agree, so the rule never fires there.
//   - Recover: a secondary detection with no fused key nearby marks a
//     press the primary engine dropped. The secondary cannot name the
//     key, but it names the family; the primary's unattributed deltas
//     around the detection are re-scored against that family alone,
//     under a relaxed threshold (and the model's noise signatures, for
//     gap-merged deltas). Only evidence-backed keys are inserted — a
//     detection with no primary residue is left unresolved rather than
//     guessed.
func Fuse(pm *Model, pds []trace.Delta, pres *Result, sm *Model, sres *Result, interval sim.Time) *FusionResult {
	win := windowsFor(interval)
	pm.buildIndex()
	out := &FusionResult{Primary: pres, Secondary: sres}

	fused := append([]InferredKey(nil), pres.Keys...)
	attributed := make(map[sim.Time]bool, len(fused))
	for _, k := range fused {
		attributed[k.At] = true
	}

	for _, s := range sres.Keys {
		// Nearest fused key to the detection.
		nearest := -1
		var nearestGap sim.Time
		for i, k := range fused {
			gap := k.At - s.At
			if gap < 0 {
				gap = -gap
			}
			if nearest < 0 || gap < nearestGap {
				nearest, nearestGap = i, gap
			}
		}

		if nearest >= 0 && nearestGap <= win.gapTolerance {
			p := &fused[nearest]
			if p.Alt != 0 &&
				!sameFamily(sm, s.R, p.R) &&
				sameFamily(sm, s.R, p.Alt) {
				p.R, p.Alt = p.Alt, p.R
				p.Margin = -p.Margin
				out.Flipped++
			}
			continue
		}
		if nearest >= 0 && nearestGap <= dedupWindow {
			// The same press's popup/echo redraw seen from the other side;
			// nothing was missed.
			continue
		}

		// Recovery: re-score the primary's unattributed deltas near the
		// detection against the secondary's family only.
		if r, ok := recoverKey(pm, sm, pds, s, attributed, win); ok {
			fused = append(fused, r)
			attributed[r.At] = true
			out.Recovered++
		}
	}

	sort.SliceStable(fused, func(i, j int) bool { return fused[i].At < fused[j].At })
	rs := make([]rune, len(fused))
	for i, k := range fused {
		rs[i] = k.R
	}
	f := *pres
	f.Keys = fused
	f.Text = string(rs)
	f.Degraded = pres.Degraded || sres.Degraded
	out.Fused = &f
	return out
}

// sameFamily reports whether the secondary model cannot tell two keys
// apart: their centroids coincide within familyEps in its weighted space.
func sameFamily(sm *Model, a, b rune) bool {
	ca, okA := sm.Keys[string(a)]
	cb, okB := sm.Keys[string(b)]
	if !okA || !okB {
		return false
	}
	return ca.Dist(cb, sm.Weights) <= familyEps
}

// recoverKey searches the primary's unattributed deltas around a
// secondary detection for evidence of the dropped press, restricted to
// the detection's key family. Gap-merged deltas (the press summed with
// neighboring redraws) are matched through the model's noise signatures,
// exactly like ClassifyDenoised but family-bounded.
func recoverKey(pm, sm *Model, pds []trace.Delta, s InferredKey, attributed map[sim.Time]bool, win windows) (InferredKey, bool) {
	lo := sort.Search(len(pds), func(i int) bool { return pds[i].At >= s.At-win.gapTolerance })
	bestR, bestScore := rune(0), pm.Cth*relaxCth
	var bestAt sim.Time
	for i := lo; i < len(pds) && pds[i].At <= s.At+win.evidence; i++ {
		d := pds[i]
		if attributed[d.At] {
			continue
		}
		for name, c := range pm.Keys {
			r := firstRune(name)
			if !sameFamily(sm, s.R, r) {
				continue
			}
			score := d.V.Dist(c, pm.Weights)
			// Residual-through-noise match for gap-merged deltas; the
			// Cth+1 bound keeps this within the valid range.
			if dn := pm.nearestNoiseTo(&d.V, &c, pm.Cth+1); dn < pm.Cth && dn < score {
				score = dn
			}
			if score < bestScore || (score <= bestScore && (bestR == 0 || r < bestR)) {
				bestR, bestScore, bestAt = r, score, d.At
			}
		}
	}
	if bestR == 0 {
		return InferredKey{}, false
	}
	return InferredKey{At: bestAt, R: bestR, Alt: s.R, Margin: 0}, true
}
