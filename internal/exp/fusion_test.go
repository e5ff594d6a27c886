package exp

import "testing"

// TestFusionBeatsBestSingleChannel pins the channel plane's reason to
// exist: under the starve profile, decision-level fusion must measurably
// beat the best single channel, and it must never be worse than KGSL on
// any profile.
func TestFusionBeatsBestSingleChannel(t *testing.T) {
	res := quick(t, "fusion")
	win := res.Metric("fusion.win")
	if win <= 0.01 {
		t.Fatalf("fusion.win = %.4f; fusion must beat the best single channel by more than 1%% char accuracy on the starve profile", win)
	}
	for _, p := range []string{"none", "mild", "moderate", "severe", "starve"} {
		k := res.Metric("fusion.char_acc.kgsl." + p)
		f := res.Metric("fusion.char_acc.fused." + p)
		if f < k {
			t.Errorf("profile %s: fused char accuracy %.4f below kgsl %.4f — fusion must never hurt", p, f, k)
		}
	}
	t.Logf("fusion.win = %.4f", win)
}
