// Forensics takes the defender's viewpoint: given a captured GPU counter
// trace from a login session (what a platform security team could record
// while reproducing the attack), quantify exactly what an attacker could
// have extracted — the credential, the input length, the typing rhythm —
// and verify that the shipped SELinux fix closes the channel.
package main

import (
	"context"
	"fmt"
	"log"

	"gpuleak"
	"gpuleak/internal/attack"
	"gpuleak/internal/sim"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	// A session is recorded on a test device: the user logs into Chase.
	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 61}
	sess := gpuleak.NewVictim(cfg)
	sess.Run(gpuleak.PracticalSession("aud1t-trail", gpuleak.Volunteers[2], 9))

	file, err := sess.Open()
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := gpuleak.NewSamplerOn(file)
	if err != nil {
		log.Fatal(err)
	}
	capture, err := sampler.CollectContext(ctx, 0, sess.End)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured trace: %d reads, %d changes over %v\n", capture.Reads, len(capture.Deltas()), sess.End)

	// The auditor replays the attacker's pipeline over the capture.
	model, err := gpuleak.TrainContext(ctx, cfg, gpuleak.CollectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	atk := gpuleak.NewAttack(model)
	res, err := atk.EavesdropTrace(capture)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwhat the capture leaks:")
	fmt.Printf("  credential      : %q (truth %q)\n", res.Text, sess.TypedText())
	fmt.Printf("  input length    : %d characters\n", res.EstimatedLength)
	if len(res.Keys) >= 2 {
		gap := res.Keys[1].At - res.Keys[0].At
		fmt.Printf("  typing rhythm   : first inter-key interval %v\n", gap)
	}
	fmt.Printf("  corrections seen: %d, app switches: %d\n",
		res.Stats.Corrections, res.Stats.Switches)

	// Offline (whole-trace) analysis squeezes out fragmented presses too.
	off, err := atk.EavesdropTraceOffline(capture)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  offline re-analysis: %q\n", off.Text)

	// Verify the fix: with the post-disclosure policy installed, the same
	// capture pipeline cannot even be started.
	patched := gpuleak.NewVictim(cfg)
	patched.Run(gpuleak.TypeText("aud1t-trail", 9))
	patched.Device.SetPolicy(gpuleak.GooglePatchPolicy())
	pf, err := patched.Open()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := attack.NewSampler(pf, 8*sim.Millisecond); err == nil {
		if _, err := atk.EavesdropContext(ctx, pf, 0, patched.End); err != nil {
			fmt.Println("\nwith the SELinux whitelist installed: counter reads are denied — channel closed")
		}
	} else {
		fmt.Println("\nwith the SELinux whitelist installed: counter reservation denied — channel closed")
	}
}
