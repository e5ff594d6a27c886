// Command collect runs the attack's offline phase (§3.2/§6): it emulates
// every typable key on a simulated device of the requested configuration,
// trains the per-configuration classifier, and writes it as JSON — the
// artifact the attacking application (attackd -model) preloads.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/victim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("collect: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains the classifier for the configuration the flags in args
// describe, writes it to the output file, and reports what it wrote on
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	device := fs.String("device", "OnePlus 8 Pro", "victim device model")
	kb := fs.String("keyboard", "gboard", "on-screen keyboard (gboard, swift, sogou, pinyin, go, grammarly)")
	app := fs.String("app", "Chase", "target application for the login scene")
	repeats := fs.Int("repeats", 3, "presses per key during collection")
	workers := fs.Int("workers", 0, "collection worker pool size (1 = serial, 0 = one per CPU); the trained model is identical at any value")
	out := fs.String("o", "", "output file (default: model-<device>-<keyboard>.json)")
	chName := fs.String("channel", "", "side channel to collect through (default kgsl; see gpuleak.Channels)")
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	stopProfiles, err := obsFlags.StartProfiles()
	if err != nil {
		return err
	}
	tracer := obsFlags.Tracer()
	if tracer != nil {
		parallel.ObserveWith(tracer.Metrics())
	}

	dev, ok := android.DeviceByName(*device)
	if !ok {
		return fmt.Errorf("unknown device %q; known devices:\n%s", *device, deviceList())
	}
	layout := keyboard.ByName(*kb)
	if layout == nil {
		return fmt.Errorf("unknown keyboard %q", *kb)
	}
	target, ok := android.AppByName(*app)
	if !ok {
		return fmt.Errorf("unknown app %q", *app)
	}
	ch, err := channel.Get(*chName)
	if err != nil {
		return err
	}

	cfg := victim.Config{Device: dev, Keyboard: layout, App: target, Seed: 1}
	log.Printf("emulating all key presses on %s / %s / %s ...", dev.Name, layout.Name, target.Name)
	m, err := attack.Collect(cfg, attack.CollectOptions{Repeats: *repeats, Workers: *workers, Channel: *chName, Obs: tracer})
	if err != nil {
		return fmt.Errorf("offline phase failed: %w", err)
	}
	fmt.Fprintf(stdout, "trained: %d key centroids, %d noise signatures, Cth=%.2f\n",
		len(m.Keys), len(m.Noise), m.Cth)

	path := *out
	if path == "" {
		// Non-default channels tag the default filename so models for
		// different channels never clobber each other.
		chTag := ""
		if t := channel.Canonical(ch.Name); t != "" {
			chTag = "-" + t
		}
		path = fmt.Sprintf("model-%s-%s%s.json", strings.ReplaceAll(dev.Name, " ", "-"), layout.Name, chTag)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing model: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", path, st.Size())

	if tracer != nil {
		if err := obsFlags.Write(tracer); err != nil {
			return fmt.Errorf("writing telemetry: %w", err)
		}
		log.Printf("wrote telemetry to %s (%d events)", obsFlags.Path, tracer.Len())
	}
	if err := stopProfiles(); err != nil {
		return fmt.Errorf("writing profiles: %w", err)
	}
	return nil
}

func deviceList() string {
	s := ""
	for _, d := range android.Devices {
		s += "  " + d.Name + "\n"
	}
	return s
}
