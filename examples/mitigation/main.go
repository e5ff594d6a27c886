// Mitigation demonstrates the paper's §9 defenses and their effect on
// the attack: the SELinux/RBAC policy that denies unprivileged global
// counter reads (the fix Google shipped), counter-value obfuscation at
// increasing amplitudes, and disabling key-press popups.
package main

import (
	"context"
	"fmt"
	"log"

	"gpuleak"
	"gpuleak/internal/stats"
)

const credential = "s3cretpass"

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	base := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 5}
	model, err := gpuleak.TrainContext(ctx, base, gpuleak.CollectOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("defense                        outcome")
	fmt.Println("-----------------------------  -------------------------------")

	// No defense.
	report("none", attackOnce(ctx, base, model, nil, 0))

	// §9.2 RBAC: untrusted apps may not read global counters.
	rbac := func(s *gpuleak.Session) { s.Device.SetPolicy(gpuleak.NewRBACPolicy()) }
	report("RBAC (SELinux whitelist)", attackOnce(ctx, base, model, rbac, 0))

	// §9.3 obfuscation at increasing amplitude: accuracy falls while the
	// injected GPU workload cost rises.
	for _, amp := range []float64{0.05, 0.3, 1.0} {
		amp := amp
		obf := func(s *gpuleak.Session) {
			o := gpuleak.NewObfuscator(amp, 77)
			s.Device.SetObfuscator(o)
		}
		label := fmt.Sprintf("obfuscation amp=%.2f", amp)
		report(label, attackOnce(ctx, base, model, obf, 0))
	}

	// §9.1 popup disabling: no popups, no per-key overdraw — but the
	// input length still leaks through the echo redraws.
	noPopup := base
	noPopup.DisablePopups = true
	report("popups disabled", attackOnce(ctx, noPopup, model, nil, 0))
}

func attackOnce(ctx context.Context, cfg gpuleak.VictimConfig, m *gpuleak.Model,
	defend func(*gpuleak.Session), seed int64) string {

	sess := gpuleak.NewVictim(cfg)
	sess.Run(gpuleak.TypeText(credential, 31+seed))
	if defend != nil {
		defend(sess)
	}
	file, err := sess.Open()
	if err != nil {
		return "blocked at open: " + err.Error()
	}
	res, err := gpuleak.NewAttack(m).EavesdropContext(ctx, file, 0, sess.End)
	if err != nil {
		return "blocked: counter read denied"
	}
	truth := sess.TypedText()
	if res.Text == truth {
		return fmt.Sprintf("LEAKED %q", res.Text)
	}
	return fmt.Sprintf("degraded: %q (edit distance %d, inferred length %d)",
		res.Text, stats.Levenshtein(res.Text, truth), len(res.Keys))
}

func report(label, outcome string) {
	fmt.Printf("%-30s %s\n", label, outcome)
}
