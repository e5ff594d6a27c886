package exp

// Tests of the arms tournament's contract: bit-identical reports at any
// worker count that match the committed arms-report.json, a strong
// undefended baseline, per-defense monotonicity of the strength sweep,
// and at least one worthwhile frontier point (large accuracy drop at
// small overhead) — the claim EXPERIMENTS.md rests on.

import (
	"bytes"
	"testing"
)

// armsTestReport runs the tournament at the canonical configuration of
// arms-report.json: seed 1, 3 trials, 8-char credentials, every defense
// over the full strength grid.
func armsTestReport(t *testing.T, workers int) *ArmsReport {
	t.Helper()
	rep, err := runArmsTournament(Options{Seed: 1, Workers: workers}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestArmsTournamentBitIdenticalAcrossWorkers pins the committed
// arms-report.json: the tournament at workers 1 and 8 must both encode
// to its exact bytes.
func TestArmsTournamentBitIdenticalAcrossWorkers(t *testing.T) {
	serial := encodeReport(t, armsTestReport(t, 1))
	if fanned := encodeReport(t, armsTestReport(t, 8)); !bytes.Equal(serial, fanned) {
		t.Fatalf("tournament reports differ across worker counts:\nworkers=1: %s\nworkers=8: %s", serial, fanned)
	}
	checkGoldenReport(t, "arms-report.json", serial)
}

// TestArmsFrontierShape asserts the defense plane's contracts on the
// canonical tournament: the schema, a working undefended attack, at
// least 4 defenses each swept over at least 3 strengths, overheads in
// [0, 1], monotone sweeps and a worthwhile point.
func TestArmsFrontierShape(t *testing.T) {
	rep := armsTestReport(t, 0)
	if rep.Schema != ArmsSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ArmsSchema)
	}
	if rep.Baseline.CharAcc < 0.5 {
		t.Fatalf("undefended fused baseline char accuracy %.3f: the attack must work before defenses can be measured", rep.Baseline.CharAcc)
	}
	if len(rep.Defenses) < 4 {
		t.Fatalf("only %d defenses swept, the table holds at least 4", len(rep.Defenses))
	}
	if len(rep.Strengths) < 3 {
		t.Fatalf("strength grid %v: the frontier needs at least 3 strengths per defense", rep.Strengths)
	}

	// Each defense's sweep must be monotone: more strength never buys the
	// attacker accuracy back. The grid replays identical victim sessions
	// across cells, so this is a property of the defenses, not sampling.
	for _, d := range rep.Defenses {
		if len(d.Points) != len(rep.Strengths) {
			t.Errorf("%s: %d points for %d strengths", d.Defense, len(d.Points), len(rep.Strengths))
			continue
		}
		for i := 1; i < len(d.Points); i++ {
			if d.Points[i].CharAcc > d.Points[i-1].CharAcc {
				t.Errorf("%s: char accuracy rose from %.3f (s=%v) to %.3f (s=%v): strength sweep must be monotone",
					d.Defense, d.Points[i-1].CharAcc, d.Points[i-1].Strength,
					d.Points[i].CharAcc, d.Points[i].Strength)
			}
		}
		for _, pt := range d.Points {
			if pt.Overhead < 0 || pt.Overhead > 1 {
				t.Errorf("%s s=%v: overhead %v outside [0,1]", d.Defense, pt.Strength, pt.Overhead)
			}
		}
	}

	// The frontier must contain a worthwhile defense: a ≥0.30 fused
	// accuracy drop at ≤0.10 platform overhead.
	worthwhile := false
	for _, d := range rep.Defenses {
		for _, pt := range d.Points {
			if pt.Drop >= 0.30 && pt.Overhead <= 0.10 {
				worthwhile = true
			}
		}
	}
	if !worthwhile {
		t.Error("no frontier point drops fused char accuracy by >=0.30 at <=0.10 overhead")
	}
}
