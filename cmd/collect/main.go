// Command collect runs the attack's offline phase (§3.2/§6): it emulates
// every typable key on a simulated device of the requested configuration,
// trains the per-configuration classifier, and writes it as JSON — the
// artifact the attacking application preloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/victim"
)

// trainReport is the -json output: one machine-readable line of training
// cost and model shape for perf-trajectory tracking.
type trainReport struct {
	Schema      string  `json:"schema"`
	Device      string  `json:"device"`
	Keyboard    string  `json:"keyboard"`
	App         string  `json:"app"`
	Repeats     int     `json:"repeats"`
	Workers     int     `json:"workers"`
	Models      int     `json:"models"`
	Keys        int     `json:"keys"`
	Noise       int     `json:"noise"`
	Bytes       int64   `json:"bytes"`
	WallSeconds float64 `json:"wall_seconds"`
	Output      string  `json:"output"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("collect: ")

	device := flag.String("device", "OnePlus 8 Pro", "victim device model")
	kb := flag.String("keyboard", "gboard", "on-screen keyboard (gboard, swift, sogou, pinyin, go, grammarly)")
	app := flag.String("app", "Chase", "target application for the login scene")
	repeats := flag.Int("repeats", 3, "presses per key during collection")
	workers := flag.Int("workers", 0, "collection worker pool size (1 = serial, 0 = one per CPU); the trained model is identical at any value")
	jsonOut := flag.Bool("json", false, "emit a machine-readable training report on stdout")
	out := flag.String("o", "", "output file (default: model-<device>-<keyboard>.json)")
	bundleAll := flag.Bool("bundle", false, "train every known device at this keyboard/app and write one bundle")
	chName := flag.String("channel", "", "side channel to collect through (default kgsl; see gpuleak.Channels)")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := obsFlags.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	tracer := obsFlags.Tracer()
	if tracer != nil {
		parallel.ObserveWith(tracer.Metrics())
	}

	layout := keyboard.ByName(*kb)
	if layout == nil {
		log.Fatalf("unknown keyboard %q", *kb)
	}
	target, ok := android.AppByName(*app)
	if !ok {
		log.Fatalf("unknown app %q", *app)
	}
	ch, err := channel.Get(*chName)
	if err != nil {
		log.Fatal(err)
	}
	// Non-default channels tag the default output filename so models for
	// different channels never clobber each other.
	chTag := ""
	if t := channel.Canonical(ch.Name); t != "" {
		chTag = "-" + t
	}
	copts := attack.CollectOptions{Repeats: *repeats, Workers: *workers, Channel: *chName}

	// finish writes the telemetry stream and profile dumps; both exit
	// paths call it after their model files are safely on disk.
	finish := func() {
		if tracer != nil {
			if err := obsFlags.Write(tracer); err != nil {
				log.Fatalf("writing telemetry: %v", err)
			}
			if !*jsonOut {
				log.Printf("wrote telemetry to %s (%d events)", obsFlags.Path, tracer.Len())
			}
		}
		if err := stopProfiles(); err != nil {
			log.Fatalf("writing profiles: %v", err)
		}
	}

	if *bundleAll {
		start := time.Now()
		// Per-device telemetry tracks are created in index order before
		// the fan-out so the merged stream is scheduling-independent.
		var devTracers []*obs.Tracer
		if tracer != nil {
			devTracers = make([]*obs.Tracer, len(android.Devices))
			for i := range devTracers {
				devTracers[i] = tracer.Child(fmt.Sprintf("device/%02d", i))
			}
		}
		// Per-device trainings are independent; they share the worker
		// budget with each training's internal per-key fan-out.
		models, err := parallel.Map(*workers, len(android.Devices), func(i int) (*attack.Model, error) {
			d := android.Devices[i]
			cfg := victim.Config{Device: d, Keyboard: layout, App: target, Seed: 1}
			if !*jsonOut {
				log.Printf("training %s ...", d.Name)
			}
			co := copts
			if devTracers != nil {
				co.Obs = devTracers[i]
			}
			m, err := attack.Collect(cfg, co)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.Name, err)
			}
			return m, nil
		})
		if err != nil {
			log.Fatal(err)
		}
		path := *out
		if path == "" {
			path = fmt.Sprintf("bundle-%s%s.json", layout.Name, chTag)
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := attack.WriteBundle(f, models); err != nil {
			log.Fatalf("writing bundle: %v", err)
		}
		st, _ := f.Stat()
		if err := f.Close(); err != nil {
			log.Fatalf("writing %s: %v", path, err)
		}
		if *jsonOut {
			keys, noise := 0, 0
			for _, m := range models {
				keys += len(m.Keys)
				noise += len(m.Noise)
			}
			emitReport(trainReport{
				Schema: "gpuleak-collect/v1", Device: "all", Keyboard: layout.Name,
				App: target.Name, Repeats: *repeats, Workers: *workers,
				Models: len(models), Keys: keys, Noise: noise, Bytes: st.Size(),
				WallSeconds: time.Since(start).Seconds(), Output: path,
			})
		} else {
			log.Printf("wrote %s (%d models, %d bytes)", path, len(models), st.Size())
		}
		finish()
		return
	}

	dev, ok := android.DeviceByName(*device)
	if !ok {
		log.Fatalf("unknown device %q; known devices:\n%s", *device, deviceList())
	}

	cfg := victim.Config{Device: dev, Keyboard: layout, App: target, Seed: 1}
	if !*jsonOut {
		log.Printf("emulating all key presses on %s / %s / %s ...", dev.Name, layout.Name, target.Name)
	}
	start := time.Now()
	copts.Obs = tracer
	m, err := attack.Collect(cfg, copts)
	if err != nil {
		log.Fatalf("offline phase failed: %v", err)
	}
	wall := time.Since(start).Seconds()
	if !*jsonOut {
		log.Printf("trained: %d key centroids, %d noise signatures, Cth=%.2f",
			len(m.Keys), len(m.Noise), m.Cth)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("model-%s-%s%s.json", sanitize(dev.Name), layout.Name, chTag)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.WriteJSON(f); err != nil {
		log.Fatalf("writing model: %v", err)
	}
	st, _ := f.Stat()
	if err := f.Close(); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	if *jsonOut {
		emitReport(trainReport{
			Schema: "gpuleak-collect/v1", Device: dev.Name, Keyboard: layout.Name,
			App: target.Name, Repeats: *repeats, Workers: *workers,
			Models: 1, Keys: len(m.Keys), Noise: len(m.Noise), Bytes: st.Size(),
			WallSeconds: wall, Output: path,
		})
	} else {
		log.Printf("wrote %s (%d bytes)", path, st.Size())
	}
	finish()
}

func emitReport(r trainReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		log.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '-'
		}
		out = append(out, r)
	}
	return string(out)
}

func deviceList() string {
	s := ""
	for _, d := range android.Devices {
		s += "  " + d.Name + "\n"
	}
	return s
}
