package exp

import (
	"strings"
	"testing"

	"gpuleak/internal/attack"
	"gpuleak/internal/input"
)

// quick runs an experiment at CI scale and logs its table.
func quick(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	r, err := e.Run(Options{Quick: true, Seed: 20260705})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	t.Logf("\n%s", r.Table.String())
	return r
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "fig11", "fig13", "fig14", "fig16", "fig17",
		"fig18", "table2", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
		"fig26", "fig28", "fig29", "modelsize"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All) < 25 {
		t.Errorf("registry has %d experiments", len(All))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID returned unknown experiment")
	}
}

func TestFig5Shape(t *testing.T) {
	r := quick(t, "fig5")
	if r.Metric("idle_changes") != 0 {
		t.Error("counters changed while idle")
	}
	if r.Metric("w_vs_n_differ") != 1 {
		t.Error("'w' and 'n' deltas identical")
	}
	if r.Metric("repeatable_w") != 1 || r.Metric("repeatable_n") != 1 {
		t.Error("per-key deltas not repeatable")
	}
}

func TestFig6Shape(t *testing.T) {
	r := quick(t, "fig6")
	if r.Metric("distinct_letter_clusters") < 24 {
		t.Errorf("letter clusters collapse: %v distinct", r.Metric("distinct_letter_clusters"))
	}
	if r.Metric("min_2d_separation") <= 0 {
		t.Error("2-D projection does not separate keys")
	}
}

func TestFig11Shape(t *testing.T) {
	r := quick(t, "fig11")
	// Paper: 633/3485 = 18.2% duplication, 316/3485 = 9.1% split; overall
	// ~28% of presses affected. Accept the same regime.
	if d := r.Metric("dup_rate"); d < 0.08 || d > 0.30 {
		t.Errorf("duplication rate %v outside paper regime (~0.18)", d)
	}
	if s := r.Metric("split_rate"); s < 0.02 || s > 0.30 {
		t.Errorf("split rate %v outside paper regime (~0.09)", s)
	}
}

func TestFig13Shape(t *testing.T) {
	r := quick(t, "fig13")
	if r.Metric("switches_detected") < 2 {
		t.Error("app switch bursts not detected")
	}
	if r.Metric("burst_max_gap_ms") >= 50 {
		t.Errorf("burst gap %vms not under 50ms", r.Metric("burst_max_gap_ms"))
	}
	if r.Metric("edit_distance") > 1 {
		t.Errorf("credential not recovered across app switch (edit distance %v)", r.Metric("edit_distance"))
	}
	if r.Metric("foreign_keys") > 0 {
		t.Error("foreign-app activity leaked into the inferred credential")
	}
}

func TestFig14Shape(t *testing.T) {
	r := quick(t, "fig14")
	if r.Metric("correct_steps") != r.Metric("want_steps") {
		t.Errorf("echo steps: %v/%v correct", r.Metric("correct_steps"), r.Metric("want_steps"))
	}
	if r.Metric("blinks") > 0 && r.Metric("blinks_on_grid") < r.Metric("blinks") {
		t.Error("cursor blinks off the 0.5s grid")
	}
}

func TestFig16Shape(t *testing.T) {
	r := quick(t, "fig16")
	if r.Metric("interval_spread_ratio") < 1.5 {
		t.Error("volunteers not heterogeneous")
	}
}

func TestFig17Shape(t *testing.T) {
	r := quick(t, "fig17")
	// Paper: avg 81.3% text, 98.3% char. Same regime (high majority-exact
	// recovery, >=94% per key at quick scale).
	if a := r.Metric("avg_text_acc"); a < 0.5 {
		t.Errorf("avg text accuracy %v too low", a)
	}
	if c := r.Metric("char_acc"); c < 0.93 {
		t.Errorf("char accuracy %v too low", c)
	}
	if e := r.Metric("mean_errors"); e > 1.3 {
		t.Errorf("mean errors %v above the paper's bound", e)
	}
}

func TestTable2Shape(t *testing.T) {
	r := quick(t, "table2")
	// Prior work stays an order of magnitude below this paper's accuracy.
	if m := r.Metric("max_accuracy"); m > 0.30 {
		t.Errorf("baseline max accuracy %v too high for Table 2", m)
	}
	if m := r.Metric("max_accuracy"); m < r.Metric("chance") {
		t.Errorf("baselines below chance: %v", m)
	}
}

func TestFig20Shape(t *testing.T) {
	r := quick(t, "fig20")
	if s := r.Metric("char_acc_spread"); s > 0.10 {
		t.Errorf("keyboard accuracy spread %v too wide (paper <5%%)", s)
	}
}

func TestFig26Shape(t *testing.T) {
	r := quick(t, "fig26")
	if m := r.Metric("max_extra_pct_2h"); m <= 0 || m > 6 {
		t.Errorf("2h battery cost %v%% outside the paper's regime (<=~4%%)", m)
	}
}

func TestModelSizeShape(t *testing.T) {
	r := quick(t, "modelsize")
	if b := r.Metric("model_bytes"); b < 1000 || b > 100_000 {
		t.Errorf("model size %v bytes out of regime", b)
	}
	if mb := r.Metric("bundle_mb"); mb > 120 {
		t.Errorf("3000-model bundle %vMB exceeds store limits", mb)
	}
}

func TestTablesRender(t *testing.T) {
	r := quick(t, "fig16")
	s := r.Table.String()
	if !strings.Contains(s, "volunteer-1") {
		t.Error("table missing rows")
	}
}

func TestFig11Census(t *testing.T) {
	r := quick(t, "fig11")
	if r.Metric("presses") < 300 {
		t.Errorf("census too small: %v presses", r.Metric("presses"))
	}
	if r.Metric("affected_frac") <= 0 {
		t.Error("no presses affected by system factors")
	}
}

func TestFig18Shape(t *testing.T) {
	r := quick(t, "fig18")
	if r.Metric("overall") < 0.90 {
		t.Errorf("overall per-key accuracy %v too low", r.Metric("overall"))
	}
	// Errors concentrate on a few keys: the worst key is clearly below
	// the overall accuracy.
	if r.Metric("worst_acc") >= r.Metric("overall") {
		t.Error("no error concentration on hard keys")
	}
}

func TestFig19Shape(t *testing.T) {
	r := quick(t, "fig19")
	if r.Metric("min_text_acc") < 0.30 {
		t.Errorf("weakest app text accuracy %v out of regime", r.Metric("min_text_acc"))
	}
	for _, app := range []string{"Chase", "chase.com"} {
		if r.Metric("char_"+app) < 0.90 {
			t.Errorf("char accuracy on %s = %v", app, r.Metric("char_"+app))
		}
	}
}

func TestFig21Shape(t *testing.T) {
	r := quick(t, "fig21")
	// Per-key accuracy is flat across speeds (paper) and errors stay
	// under the paper's 1.3 bound.
	if s := r.Metric("char_acc_spread"); s > 0.06 {
		t.Errorf("char accuracy varies with speed: spread %v", s)
	}
	for _, sp := range []string{"slow", "medium", "fast"} {
		if e := r.Metric("errors_" + sp); e > 1.3 {
			t.Errorf("%s speed mean errors %v above paper bound", sp, e)
		}
	}
}

func TestFig22Shape(t *testing.T) {
	r := quick(t, "fig22")
	// Low load is negligible; 75% load degrades markedly (paper Fig 22).
	if drop := r.Metric("gpu_0_text") - r.Metric("gpu_25_text"); drop > 0.25 {
		t.Errorf("GPU 25%% already destroys accuracy (drop %v)", drop)
	}
	if r.Metric("gpu_75_text") >= r.Metric("gpu_0_text") {
		t.Error("GPU 75% load has no effect")
	}
	if r.Metric("cpu_75_char") < 0.85 {
		t.Errorf("CPU load too destructive: char %v", r.Metric("cpu_75_char"))
	}
}

func TestFig23Shape(t *testing.T) {
	r := quick(t, "fig23")
	// The 120 Hz panel needs the 4 ms interval: 12 ms collapses.
	if r.Metric("120hz_12ms_text") >= r.Metric("120hz_4ms_text") {
		t.Error("120Hz/12ms not worse than 120Hz/4ms")
	}
	if r.Metric("60hz_8ms_char") < 0.90 {
		t.Errorf("60Hz/8ms char accuracy %v", r.Metric("60hz_8ms_char"))
	}
}

func TestFig24Shape(t *testing.T) {
	r := quick(t, "fig24")
	if r.Metric("min_text_acc") < 0.25 {
		t.Errorf("adaptability floor %v too low", r.Metric("min_text_acc"))
	}
}

func TestFig28Shape(t *testing.T) {
	r := quick(t, "fig28")
	if r.Metric("avg_char_acc") < 0.85 {
		t.Errorf("practical char accuracy %v", r.Metric("avg_char_acc"))
	}
	if r.Metric("avg_trace_acc") <= 0.2 {
		t.Errorf("practical trace accuracy %v", r.Metric("avg_trace_acc"))
	}
}

func TestFig29Shape(t *testing.T) {
	r := quick(t, "fig29")
	if r.Metric("pnc_text") >= r.Metric("baseline_text") {
		t.Error("PNC animation did not reduce accuracy")
	}
	if r.Metric("pnc_char") < 0.5 {
		t.Errorf("PNC char accuracy %v collapsed entirely", r.Metric("pnc_char"))
	}
}

func TestAblationShapes(t *testing.T) {
	dedup := quick(t, "ablation-dedup")
	if dedup.Metric("text_75ms (paper)") <= dedup.Metric("text_disabled") {
		t.Error("dedup window does not help")
	}
	if dedup.Metric("text_75ms (paper)") <= dedup.Metric("text_150ms") {
		t.Error("oversized dedup window not harmful")
	}

	split := quick(t, "ablation-split")
	if split.Metric("text_on") <= split.Metric("text_off") {
		t.Error("split combining does not help")
	}
	if split.Metric("splits_on") == 0 {
		t.Error("no splits observed")
	}

	corr := quick(t, "ablation-corrections")
	// At quick scale the two arms can tie; correction tracking must never
	// hurt, and at full scale it strictly helps (see EXPERIMENTS.md).
	if corr.Metric("trace_on") < corr.Metric("trace_off") {
		t.Error("correction tracking hurts")
	}

	counters := quick(t, "ablation-counters")
	if counters.Metric("char_all 11") <= counters.Metric("char_VPC only") {
		t.Error("full counter set no better than VPC alone")
	}
}

func TestAblationGreedyVsOffline(t *testing.T) {
	r := quick(t, "ablation-greedy")
	if r.Metric("char_offline")+1e-9 < r.Metric("char_online") {
		t.Errorf("whole-trace segmentation lost accuracy: %v vs %v",
			r.Metric("char_offline"), r.Metric("char_online"))
	}
}

func TestSec9DefenseMatrix(t *testing.T) {
	r := quick(t, "sec9")
	if r.Metric("blocked_SELinux ioctl whitelist") != 1 {
		t.Error("SELinux whitelist did not block the attack")
	}
	if r.Metric("text_popups disabled") > 0 {
		t.Error("popup disabling did not stop credential recovery")
	}
	// §9.1's caveat: the input length still leaks without popups.
	if r.Metric("length_popups disabled") <= 0.2 {
		t.Errorf("length leak gone with popups disabled: %v", r.Metric("length_popups disabled"))
	}
	if r.Metric("text_autofill") > 0 {
		t.Error("autofill did not stop credential recovery")
	}
	// Obfuscation strength ordering.
	if r.Metric("obf_0.0005_text") <= r.Metric("obf_0.0100_text") {
		t.Error("obfuscation amplitude ordering violated")
	}
	// §9.1: the attack's ioctl rate is far below normal driver traffic.
	if r.Metric("attack_ioctl_rate") >= r.Metric("normal_ioctl_rate") {
		t.Error("attack ioctl rate not below normal driver rate")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Identical options must reproduce identical metrics bit-for-bit.
	for _, id := range []string{"fig5", "fig11", "table2"} {
		e, _ := ByID(id)
		a, err := e.Run(Options{Quick: true, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(Options{Quick: true, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range a.Metrics {
			if b.Metrics[k] != v {
				t.Errorf("%s: metric %s differs across identical runs: %v vs %v", id, k, v, b.Metrics[k])
			}
		}
	}
}

func TestGuessingShape(t *testing.T) {
	r := quick(t, "guessing")
	if r.Metric("acc@1") <= 0 {
		t.Fatal("zero exact recovery")
	}
	if r.Metric("acc@10") < r.Metric("acc@1") {
		t.Error("guessing reduced accuracy")
	}
	if r.Metric("acc@50") < r.Metric("acc@10") {
		t.Error("accuracy@k not monotone")
	}
}

func TestTransferShape(t *testing.T) {
	r := quick(t, "transfer")
	if r.Metric("diag_mean") < 0.9 {
		t.Errorf("on-device accuracy %v too low", r.Metric("diag_mean"))
	}
	if r.Metric("offdiag_mean") >= r.Metric("diag_mean")-0.2 {
		t.Errorf("cross-device transfer did not collapse: %v vs %v",
			r.Metric("offdiag_mean"), r.Metric("diag_mean"))
	}
}

func TestFig12Shape(t *testing.T) {
	r := quick(t, "fig12")
	if r.Metric("noise_classified_as_key") != 0 {
		t.Errorf("%v learned noise signatures classify as keys", r.Metric("noise_classified_as_key"))
	}
	if r.Metric("noise_signatures") < 10 {
		t.Error("too few noise signatures learned")
	}
}

func TestFig27Shape(t *testing.T) {
	r := quick(t, "fig27")
	if r.Metric("total_behaviors") < 5 {
		t.Errorf("practical sessions too clean: %v behaviors", r.Metric("total_behaviors"))
	}
}

func TestRunBatchParallelDeterminism(t *testing.T) {
	// The worker pool assigns sessions by index; results must be
	// identical across runs regardless of scheduling.
	cfg := DefaultConfig()
	m, err := TrainModel(cfg, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *BatchResult {
		b, err := RunBatch(Options{}, cfg, m, LowerDigits, 8, 12, input.Volunteers[0],
			input.SpeedAny, attack.DefaultInterval, attack.OnlineOptions{}, 777)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	for i := range a.Inferred {
		if a.Inferred[i] != b.Inferred[i] || a.Truth[i] != b.Truth[i] {
			t.Fatalf("batch slot %d differs across runs", i)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("aggregate stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestCalibrationRobustAcrossSeeds guards the headline accuracy against
// being a single-seed fluke: three unrelated seeds must all land in the
// paper's regime.
func TestCalibrationRobustAcrossSeeds(t *testing.T) {
	cfg := DefaultConfig()
	m, err := TrainModel(cfg, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{101, 987654, 31337} {
		b, err := RunBatch(Options{}, cfg, m, LowerDigits, 10, 20, input.Volunteers[int(seed)%5],
			input.SpeedAny, attack.DefaultInterval, attack.OnlineOptions{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ca := b.CharAccuracy(); ca < 0.93 {
			t.Errorf("seed %d: char accuracy %v below regime", seed, ca)
		}
		if ta := b.TextAccuracy(); ta < 0.5 {
			t.Errorf("seed %d: text accuracy %v below regime", seed, ta)
		}
	}
}
