// Command attackd demonstrates the end-to-end attack: it simulates a
// victim device on which a user types a credential into a banking app,
// then runs the attacking application (counter sampler + device
// recognition + online inference engine) against the device file and
// prints what was eavesdropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("attackd: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains (or loads) a classifier, simulates the victim session the
// flags in args describe, eavesdrops on it, and prints the outcome to
// stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("attackd", flag.ExitOnError)
	device := fs.String("device", "OnePlus 8 Pro", "victim device model")
	app := fs.String("app", "Chase", "target application")
	kb := fs.String("keyboard", "gboard", "on-screen keyboard")
	text := fs.String("text", "hunter2pass", "credential the victim types")
	volunteer := fs.Int("volunteer", 0, "typing profile 0-4")
	modelPath := fs.String("model", "", "pretrained model JSON (default: train on the fly)")
	seed := fs.Int64("seed", 42, "simulation seed")
	practical := fs.Bool("practical", false, "inject corrections/app switches (§8 behavior)")
	traceOut := fs.String("trace", "", "write the raw counter trace as CSV")
	monitor := fs.Bool("monitor", false, "start with the Figure-4 monitoring service: the victim uses another app first, the attack waits for the target launch")
	faults := fs.String("faults", "", "inject device faults from this profile (none,mild,moderate,severe,starve) and arm the retry policy")
	faultSeed := fs.Int64("fault-seed", 0, "fault schedule seed (default: derived from -seed)")
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	stopProfiles, err := obsFlags.StartProfiles()
	if err != nil {
		return err
	}
	tracer := obsFlags.Tracer()

	dev, ok := android.DeviceByName(*device)
	if !ok {
		return fmt.Errorf("unknown device %q", *device)
	}
	layout := keyboard.ByName(*kb)
	if layout == nil {
		return fmt.Errorf("unknown keyboard %q", *kb)
	}
	target, ok := android.AppByName(*app)
	if !ok {
		return fmt.Errorf("unknown app %q", *app)
	}
	if *volunteer < 0 || *volunteer >= len(input.Volunteers) {
		return fmt.Errorf("volunteer must be 0-%d", len(input.Volunteers)-1)
	}

	cfg := victim.Config{Device: dev, Keyboard: layout, App: target,
		Seed: *seed, RenderJitter: 0.0001}
	if *monitor {
		cfg.PreLaunch = 6 * sim.Second
	}

	// Offline phase (or load a preloaded model).
	train := cfg
	train.RenderJitter = 0
	var m *attack.Model
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		m, err = attack.ReadModel(f)
		f.Close()
		if err != nil {
			return err
		}
		// The online phase reads KGSL deltas on this victim's device, so a
		// model trained on another channel or configuration would classify
		// them against the wrong centroids.
		if want := attack.ModelKeyForChannel(train, ""); m.Key != want {
			return fmt.Errorf("model %s was trained for %s, not for this victim's %s", *modelPath, m.Key, want)
		}
		log.Printf("loaded model %s (%d keys)", m.Key, len(m.Keys))
	} else {
		log.Printf("offline phase: training classifier for %s / %s ...", dev.Name, layout.Name)
		var err error
		m, err = attack.CollectContext(ctx, train, attack.CollectOptions{Repeats: 2, Obs: tracer})
		if err != nil {
			return err
		}
		log.Printf("trained %d key centroids, %d noise signatures", len(m.Keys), len(m.Noise))
	}

	// Victim session.
	vol := input.Volunteers[*volunteer]
	start := 700*sim.Millisecond + cfg.PreLaunch
	var script input.Script
	if *practical {
		script = input.Practical(*text, vol, input.DefaultPracticalOptions(), sim.NewRand(*seed+1), start)
	} else {
		script = input.Typing(*text, vol, input.SpeedAny, sim.NewRand(*seed+1), start)
	}
	sess := victim.New(cfg)
	sess.Run(script)
	log.Printf("victim: %s launches %s, types %d keys (%s profile)",
		dev.Name, target.Name, script.PressCount(), vol.Name)

	// Online phase.
	sess.Device.SetMetrics(tracer.Metrics())
	p := attack.Pipeline{Legs: []attack.Leg{{Model: m}}, Obs: tracer}
	if *faults != "" {
		prof, ok := fault.ByName(*faults)
		if !ok {
			return fmt.Errorf("unknown fault profile %q (have %s)", *faults, strings.Join(fault.Names(), ","))
		}
		p.Fault, p.FaultSeed = prof, *faultSeed
		if p.FaultSeed == 0 {
			p.FaultSeed = fault.Seed(*seed, 0)
		}
		log.Printf("fault injection: profile %s (rate %.3f, fault seed %d), retry policy armed", prof.Name, prof.Rate(), p.FaultSeed)
	}
	st, err := p.Build(sess)
	if err != nil {
		return fmt.Errorf("opening /dev/kgsl-3d0: %w", err)
	}
	leg := st.Legs[0]
	var res *attack.Result
	if *monitor {
		mr, err := leg.Attack.MonitorAndEavesdrop(leg.Probe, 0, sess.End)
		if err != nil {
			return fmt.Errorf("monitoring failed: %w", err)
		}
		if !mr.Detected {
			return errors.New("target app launch never detected")
		}
		log.Printf("monitor: target launch detected at %v after %d low-duty reads",
			mr.LaunchDetectedAt, mr.IdleReads)
		res = mr.Result
	} else {
		out, err := st.Run(ctx, 0, sess.End, nil)
		if err != nil {
			return fmt.Errorf("eavesdropping failed: %w", err)
		}
		res = out.Result
		if *traceOut != "" {
			// Archive the raw counter trace the inference ran on.
			tr := out.Legs[0].Trace
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := tr.WriteCSV(f); err != nil {
				f.Close()
				return fmt.Errorf("writing %s: %w", *traceOut, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("writing %s: %w", *traceOut, err)
			}
			log.Printf("wrote counter trace to %s (%d samples)", *traceOut, tr.Len())
		}
	}

	truth := sess.TypedText()
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  victim typed : %q\n", truth)
	fmt.Fprintf(stdout, "  eavesdropped : %q\n", res.Text)
	fmt.Fprintf(stdout, "  exact match  : %v\n", res.Text == truth)
	fmt.Fprintf(stdout, "  edit distance: %d\n", stats.Levenshtein(res.Text, truth))
	fmt.Fprintf(stdout, "  engine stats : %+v\n", res.Stats)
	fmt.Fprintf(stdout, "  ioctl calls  : %d\n", sess.Device.IoctlCount())
	if leg.Fault != nil {
		fmt.Fprintf(stdout, "  injected     : %+v (total %d)\n", leg.Fault.Stats, leg.Fault.Stats.Total())
		fmt.Fprintf(stdout, "  recovery     : %+v (degraded=%v)\n", res.Recovery, res.Degraded)
	}

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
