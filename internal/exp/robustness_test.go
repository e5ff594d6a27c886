package exp

import (
	"bytes"
	"testing"

	"gpuleak/internal/fault"
)

// TestChaosReportDeterministicAcrossWorkers pins the committed
// chaos-report.json — every predefined profile, seed 1, 10 trials, the
// run EXPERIMENTS.md's Robustness table quotes — bit for bit at workers
// 1 and 8, and asserts the fault plane's contracts on it: the zero-rate
// profile is a pure passthrough that matches the raw library path, and
// every faulty profile injects, recovers and loses no trial.
func TestChaosReportDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *ChaosReport {
		rep, err := runChaosProfiles(Options{Seed: 1, Workers: workers}, fault.Profiles(), 10)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep
	}
	rep := run(1)
	serial := encodeReport(t, rep)
	if fanned := encodeReport(t, run(8)); !bytes.Equal(serial, fanned) {
		t.Fatalf("chaos report differs across worker counts:\n%s\nvs\n%s", serial, fanned)
	}
	checkGoldenReport(t, "chaos-report.json", serial)

	if rep.Schema != ChaosSchema {
		t.Errorf("schema %q, want %q", rep.Schema, ChaosSchema)
	}
	if !rep.BaselineMatch {
		t.Error("none-profile trials diverged from the raw library path")
	}
	for _, pr := range rep.Profiles {
		if pr.Fatal != 0 {
			t.Errorf("profile %q: %d/%d fatal trials under the default retry policy", pr.Profile, pr.Fatal, pr.Trials)
		}
		if pr.Rate == 0 {
			if pr.Injected.Total() != 0 || pr.Degraded != 0 {
				t.Errorf("profile %q injected %d faults and degraded %d trials; want a pure passthrough",
					pr.Profile, pr.Injected.Total(), pr.Degraded)
			}
			continue
		}
		if pr.Injected.Total() == 0 {
			t.Errorf("profile %q (rate %.3f) injected nothing", pr.Profile, pr.Rate)
		}
		recovered := pr.Recovery.Retries + pr.Recovery.ReReservations +
			pr.Recovery.DroppedTicks + pr.Recovery.WrappedRetries
		if recovered == 0 {
			t.Errorf("profile %q injected %d faults but the sampler recorded no recovery work",
				pr.Profile, pr.Injected.Total())
		}
	}
}

// TestChaosAccuracyDegradesMonotonically is the robustness property the
// paper's pipeline should satisfy: harsher fault schedules cost accuracy
// gradually (degraded results, with gaps flagged), never availability.
// The predefined profiles are tuned to be fully absorbed, so this uses
// escalating tick-loss profiles harsh enough to actually lose key
// presses.
func TestChaosAccuracyDegradesMonotonically(t *testing.T) {
	profiles := []fault.Profile{
		{Name: "drop10", PDropTick: 0.10},
		{Name: "drop30", PDropTick: 0.30},
		{Name: "drop60", PDropTick: 0.60},
	}
	rep, err := runChaosProfiles(Options{Seed: 3, Workers: 0}, profiles, 6)
	if err != nil {
		t.Fatal(err)
	}

	// The accuracy ceiling is a clean run; the floor is losing more than
	// half the samples. Adjacent steps may tie on small trial counts, so
	// the property is non-strict per step and strict end to end.
	const tolerance = 0.05
	for i := 1; i < len(rep.Profiles); i++ {
		prev, cur := rep.Profiles[i-1], rep.Profiles[i]
		if cur.CharAccuracy > prev.CharAccuracy+tolerance {
			t.Errorf("char accuracy rose with severity: %s=%.3f -> %s=%.3f",
				prev.Profile, prev.CharAccuracy, cur.Profile, cur.CharAccuracy)
		}
	}
	first, last := rep.Profiles[0], rep.Profiles[len(rep.Profiles)-1]
	if last.CharAccuracy >= first.CharAccuracy {
		t.Errorf("dropping 60%% of ticks (%.3f) did not degrade accuracy below 10%% loss (%.3f)",
			last.CharAccuracy, first.CharAccuracy)
	}
	for _, pr := range rep.Profiles {
		if pr.Fatal != 0 {
			t.Errorf("profile %q: %d fatal trials — tick loss must degrade, not kill", pr.Profile, pr.Fatal)
		}
		if pr.Degraded != pr.Trials {
			t.Errorf("profile %q: only %d/%d trials flagged degraded", pr.Profile, pr.Degraded, pr.Trials)
		}
		if pr.Gaps+pr.Resyncs == 0 {
			t.Errorf("profile %q: heavy tick loss produced no engine gap verdicts", pr.Profile)
		}
	}
}
