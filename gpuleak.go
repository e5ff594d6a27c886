// Package gpuleak is a research reproduction of "Eavesdropping User
// Credentials via GPU Side Channels on Smartphones" (Yang, Chen, Huang,
// Yang, Gao — ASPLOS 2022). It implements the complete attack — reading
// Qualcomm Adreno GPU performance counters through the KGSL device file
// and inferring on-screen keyboard input from per-key GPU overdraw — on a
// faithful simulation of the Android graphics stack, together with the
// paper's mitigations and its full evaluation suite.
//
// The package is the high-level facade. The layers underneath:
//
//   - internal/render, internal/adreno, internal/kgsl — the tile-based
//     GPU, its performance counters, and the ioctl device-file interface;
//   - internal/keyboard, internal/android, internal/victim — the victim
//     UI stack: keyboards, login screens, compositor, device models;
//   - internal/attack — the paper's contribution: offline training,
//     online inference (Algorithm 1), app-switch and correction handling;
//   - internal/defense — §9 defenses as a composable, strength-
//     parameterized plane (rate limiting, quantization, noise, RBAC,
//     jitter);
//   - internal/fault — a deterministic fault plane for the device file
//     (EBUSY bursts, counter revocation, missed ticks, wrapped reads);
//   - internal/exp — one runner per paper table/figure.
//
// # Quick start
//
//	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 1}
//	model, _ := gpuleak.Train(cfg)                  // offline phase
//	session := gpuleak.NewVictim(cfg)               // victim device
//	session.Run(gpuleak.TypeText("hunter2", 1))     // user types
//	file, _ := session.Open()                       // /dev/kgsl-3d0
//	result, _ := gpuleak.NewAttack(model).Eavesdrop(file, 0, session.End)
//	fmt.Println(result.Text)                        // "hunter2"
//
// # Contexts, options, errors
//
// Every phase has a context-aware variant that honors cancellation
// without ever changing a completed result: TrainContext (stops between
// per-key collection tasks), Attack.EavesdropContext (checks at every
// sampler tick), Sampler.CollectContext, and RunExperimentContext. The
// context-free signatures remain as context.Background wrappers. The
// context entry points take functional options — WithWorkers, WithObs,
// WithRepeats — layered over the existing option structs.
// Failures match the stable taxonomy ErrUnknownExperiment, ErrBusy and
// ErrModelNotTrained under errors.Is.
//
// # Fault injection & degraded mode
//
// InjectFaults wraps a device file in a seeded, named FaultProfile;
// Attack.Retry (see DefaultRetryPolicy) absorbs the injected EBUSY
// bursts, revocations and missed ticks with sim-time backoff and
// re-reservation. Recovered runs set Result.Degraded and account for the
// recovery work in Result.Recovery; unabsorbed failures surface as typed
// *SampleError values classifiable with errors.As and IsRetryable. The
// zero profile is a byte-identical passthrough, and a fixed (profile,
// seed) replays the identical fault schedule at any worker count —
// the chaos experiment measures recovery rates on exactly this contract.
//
// # Serving
//
// cmd/gpuleakd wraps this pipeline in an HTTP/JSON service (package
// internal/serve): a sharded model registry trains classifiers on miss
// and serves concurrent /v1/eavesdrop, /v1/train and /v1/experiment
// requests through bounded per-shard work queues that reject with 429
// when full. Responses are byte-identical to the library path for the
// same seed at any concurrency. Requests may opt into fault injection
// (fault_profile); recovered runs answer 200 with a degraded flag rather
// than 5xx. See the README's "Serving" section and ARCHITECTURE.md for
// the request lifecycle.
//
// This code exists to let defenders study and quantify the leak; the
// "hardware" is a simulator and the package cannot read real GPU
// counters.
package gpuleak

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/exp"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// Core types of the attack pipeline.
type (
	// VictimConfig selects the simulated device, app, keyboard and
	// environment of a victim session.
	VictimConfig = victim.Config
	// Session is a materialized victim run exposing the GPU device file
	// and the ground truth.
	Session = victim.Session
	// Model is a trained per-configuration classifier.
	Model = attack.Model
	// Attack is the attacking application: preloaded models + sampler +
	// online engine. Eavesdrop runs the full online phase;
	// EavesdropContext adds sampler-tick-granular cancellation.
	Attack = attack.Attack
	// Result is an eavesdropping outcome.
	Result = attack.Result
	// OnlineOptions holds the §5 online engine's ablation settings.
	OnlineOptions = attack.OnlineOptions
	// CollectOptions tunes the offline phase.
	CollectOptions = attack.CollectOptions
	// MonitorResult reports a monitored eavesdropping run.
	MonitorResult = attack.MonitorResult
	// DeviceModel describes a phone.
	DeviceModel = android.DeviceModel
	// App is a target application.
	App = android.App
	// KeyboardLayout is an on-screen keyboard.
	KeyboardLayout = keyboard.Layout
	// Volunteer is a human typing-timing profile.
	Volunteer = input.Volunteer
	// Script is a sequence of user actions.
	Script = input.Script
	// KGSLFile is an open handle on the GPU device file.
	KGSLFile = kgsl.File
	// Time is a simulated timestamp in microseconds.
	Time = sim.Time
	// Tracer records the deterministic sim-time telemetry stream; attach
	// one via Attack.Obs or CollectOptions.Obs.
	Tracer = obs.Tracer
	// TelemetryEvent is one recorded telemetry event.
	TelemetryEvent = obs.Event
)

// Devices from the paper's evaluation.
var (
	LGV30       = android.LGV30
	Pixel2      = android.Pixel2
	OnePlus7Pro = android.OnePlus7Pro
	OnePlus8Pro = android.OnePlus8Pro
	OnePlus9    = android.OnePlus9
	GalaxyS21   = android.GalaxyS21
	Pixel5      = android.Pixel5
)

// Target applications.
var (
	Chase    = android.Chase
	Amex     = android.Amex
	Fidelity = android.Fidelity
	Schwab   = android.Schwab
	MyFICO   = android.MyFICO
	Experian = android.Experian
	PNC      = android.PNC
)

// Keyboards.
var (
	GBoard    = keyboard.GBoard
	SwiftKey  = keyboard.Swift
	Sogou     = keyboard.Sogou
	Pinyin    = keyboard.Pinyin
	GoBoard   = keyboard.Go
	Grammarly = keyboard.Grammarly
)

// Volunteers are the five §7 typing profiles.
var Volunteers = input.Volunteers

// NewVictim creates a victim device session. Call Session.Run with a
// Script, then Session.Open to obtain the device file the attacker reads.
func NewVictim(cfg VictimConfig) *Session { return victim.New(cfg) }

// Train runs the offline phase on a controlled device of the given
// configuration and returns the classifier to preload into the attack.
// See TrainContext for cancellation and functional options.
func Train(cfg VictimConfig) (*Model, error) {
	return attack.Collect(cfg, attack.CollectOptions{})
}

// TrainWith runs the offline phase with an explicit options struct;
// TrainContext(ctx, cfg, WithWorkers(...), ...) is the functional-option
// equivalent.
func TrainWith(cfg VictimConfig, opts CollectOptions) (*Model, error) {
	return attack.Collect(cfg, opts)
}

// NewAttack builds an attacking application from preloaded models.
func NewAttack(models ...*Model) *Attack { return attack.New(models...) }

// NewTracer creates a telemetry tracer. Wire it into Attack.Obs (online
// phase) or CollectOptions.Obs (offline phase), then export the merged
// stream with WriteTelemetry.
func NewTracer() *Tracer { return obs.New() }

// WriteTelemetry exports a tracer's event stream as deterministic JSONL.
func WriteTelemetry(w io.Writer, tr *Tracer) error {
	return obs.WriteJSONL(w, tr.Events())
}

// WriteTelemetryChrome exports a tracer's event stream as a Chrome
// trace-event file loadable in Perfetto / chrome://tracing.
func WriteTelemetryChrome(w io.Writer, tr *Tracer) error {
	return obs.WriteChromeTrace(w, tr.Events())
}

// TypeText builds a plain typing script using the first volunteer's
// timing, starting 0.7 s after app launch.
func TypeText(text string, seed int64) Script {
	return input.Typing(text, input.Volunteers[0], input.SpeedAny,
		sim.NewRand(seed), 700*sim.Millisecond)
}

// PracticalSession builds a §8-style session: typing with corrections,
// app switches and notification glances.
func PracticalSession(text string, v Volunteer, seed int64) Script {
	rng := sim.NewRand(seed)
	return input.Practical(text, v, input.DefaultPracticalOptions(), rng, 700*sim.Millisecond)
}

// Mitigations (§9).

// NewRBACPolicy returns the §9.2 SELinux-style role-based access control
// policy; install it with Session.Device.SetPolicy to block the attack.
func NewRBACPolicy() *defense.RBACPolicy { return defense.NewRBACPolicy() }

// NewObfuscator returns the §9.3 counter obfuscator; install it with
// Session.Device.SetObfuscator. Amplitude 1 injects key-press-sized noise.
func NewObfuscator(amplitude float64, seed uint64) *defense.NoiseObfuscator {
	return &defense.NoiseObfuscator{Amplitude: amplitude, Seed: seed}
}

// NewSELinuxPolicy compiles a §9.2 ioctl-whitelist policy document; see
// defense.GooglePatchPolicy for the rule syntax and the shipped fix.
func NewSELinuxPolicy(doc string) (*defense.IoctlPolicy, error) {
	return defense.ParsePolicy(strings.NewReader(doc))
}

// GooglePatchPolicy returns the compiled shape of the post-disclosure
// Android fix: apps keep the ioctls the GL driver needs but lose the
// global PERFCOUNTER_READ.
func GooglePatchPolicy() *defense.IoctlPolicy {
	return defense.NewGooglePatchPolicy()
}

// Experiment is one entry of the paper's evaluation suite (one runner
// per table and figure); see the exp package for the registry.
type Experiment = exp.Experiment

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment { return exp.All }

// RunExperiment executes one experiment by figure/table ID ("fig17",
// "table2", ...). quick shrinks trial counts for fast runs. See
// RunExperimentContext for cancellation and worker/telemetry options.
func RunExperiment(id string, quick bool, seed int64) (*exp.Result, error) {
	return RunExperimentContext(context.Background(), id, quick, seed)
}

// UnknownExperimentError reports a bad experiment ID. It matches
// ErrUnknownExperiment under errors.Is.
type UnknownExperimentError struct{ ID string }

// Error returns the message, prefixed with the module name.
func (e *UnknownExperimentError) Error() string {
	return "gpuleak: unknown experiment " + e.ID
}

// PracticalSessionAt is PracticalSession with an explicit start time
// (e.g. after a PreLaunch foreign-use phase).
func PracticalSessionAt(text string, v Volunteer, seed int64, start Time) Script {
	rng := sim.NewRand(seed)
	return input.Practical(text, v, input.DefaultPracticalOptions(), rng, start)
}

// NewSamplerOn reserves the Table-1 counters on a device file and returns
// the 8 ms sampler, for callers that want the raw trace (forensics,
// offline segmentation). Set the returned Sampler's Obs to record its
// telemetry.
func NewSamplerOn(f *KGSLFile) (*attack.Sampler, error) {
	return attack.NewSampler(f, attack.DefaultInterval)
}

// The channel plane. The attack pipeline is generic over the side
// channel it samples: "kgsl" (the paper's GPU perf counters, the
// default everywhere a channel is not named) and "proccount" (an
// EavesDroid-style OS-counter channel) ship registered. Select one with
// WithChannel on TrainContext, or several with WithChannels on
// EavesdropSession to fuse their detections.

// FusionResult is the outcome of a multi-channel eavesdropping run: the
// per-channel results plus the fused one, with recovery/flip counts.
type FusionResult = attack.FusionResult

// Channels lists the registered side-channel names, sorted. Unknown
// names passed to WithChannel/WithChannels surface as ErrUnknownChannel.
func Channels() []string { return channel.Names() }

// EavesdropSession runs the online phase on a completed victim session
// over the configured side channels. With no channel options (or
// WithChannel) it samples one channel and Fused aliases Primary; with
// WithChannels(primary, secondary) it runs both and fuses the
// secondary's detections into the primary's result — see
// attack.Fuse for the flip/recover rules. models must hold one
// classifier per requested channel (trained via TrainContext with the
// matching WithChannel); a missing one fails with ErrModelNotTrained.
func EavesdropSession(ctx context.Context, sess *Session, models []*Model, start, end Time, opts ...Option) (*FusionResult, error) {
	o := buildOptions(opts)
	names := o.channels
	if len(names) == 0 {
		names = []string{""}
	}
	if len(names) > 2 {
		return nil, fmt.Errorf("gpuleak: EavesdropSession fuses at most two channels, got %d", len(names))
	}
	p := attack.Pipeline{Obs: o.obs}
	for _, name := range names {
		ch, err := channel.Get(name)
		if err != nil {
			return nil, err
		}
		var m *Model
		for _, cand := range models {
			if cand != nil && cand.Key.Channel == channel.Canonical(ch.Name) {
				m = cand
				break
			}
		}
		if m == nil {
			return nil, fmt.Errorf("gpuleak: no model for channel %q: %w", ch.Name, attack.ErrModelNotTrained)
		}
		p.Legs = append(p.Legs, attack.Leg{Channel: name, Model: m})
	}
	out, err := p.Run(ctx, sess, start, end, nil)
	if err != nil {
		return nil, err
	}
	if out.Fusion != nil {
		return out.Fusion, nil
	}
	return &FusionResult{Primary: out.Result, Fused: out.Result}, nil
}
