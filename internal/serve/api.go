// Package serve is the repo's inference-serving layer: an HTTP/JSON
// front-end over the attack pipeline that mirrors the train-once /
// serve-many split of the paper (§3.2 offline phase, §5 Algorithm 1
// online phase). A sharded model registry trains classifiers on miss —
// deduplicated by singleflight, bounded by a per-shard LRU — and every
// request flows through a bounded per-shard work queue that rejects with
// 429 when full, so load beyond capacity degrades by refusal, never by
// unbounded queueing.
//
// Determinism is inherited from the layers below: for a fixed request
// (configuration, text, seed) the response is byte-identical to the
// library path (gpuleak.TrainContext + NewAttack().EavesdropContext) at
// any request concurrency, which the root-level serving tests pin.
//
// The package deliberately never reads the wall clock (the gpuvet
// simtime gate applies here too): deadlines come from request contexts,
// and the Retry-After hint is a constant.
package serve

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// Schema identifies the wire format of every JSON response body.
const Schema = "gpuleak-serve/v1"

// EavesdropRequest is the body of POST /v1/eavesdrop: one victim session
// to simulate and eavesdrop. Empty configuration fields select the
// paper's workhorse setup (OnePlus 8 Pro, Chase, GBoard).
type EavesdropRequest struct {
	Device   string `json:"device,omitempty"`
	App      string `json:"app,omitempty"`
	Keyboard string `json:"keyboard,omitempty"`
	// Text is the credential the simulated victim types (required).
	Text string `json:"text"`
	// Seed drives the victim simulation; the same (config, text, seed)
	// always yields the same response.
	Seed int64 `json:"seed"`
	// Volunteer selects the §7 typing profile (0-4).
	Volunteer int `json:"volunteer,omitempty"`
	// Practical injects §8 behavior: corrections, app switches, glances.
	Practical bool `json:"practical,omitempty"`
	// PretrainedOnly refuses to train on miss: the request fails with 412
	// (gpuleak.ErrModelNotTrained) unless the registry already holds the
	// model.
	PretrainedOnly bool `json:"pretrained_only,omitempty"`
	// TimeoutMS caps this request's deadline. The server's own request
	// timeout still applies; the effective deadline is the smaller.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// FaultProfile names a predefined fault-injection profile
	// (none|mild|moderate|severe) to run the request under; empty disables
	// the fault plane entirely. With a profile set, the sampler runs with
	// retries on and a partially recovered run is answered
	// 200 with "degraded":true instead of a 5xx.
	FaultProfile string `json:"fault_profile,omitempty"`
	// FaultSeed seeds the fault schedule; 0 derives it from Seed, so the
	// same request always faces the same bit-identical schedule.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Channel names the side channel the run samples; empty means "kgsl",
	// the GPU perf-counter channel. GET /healthz advertises the registered
	// names; unknown ones answer 400.
	Channel string `json:"channel,omitempty"`
	// Channels requests a multi-channel run: the first entry is the
	// primary channel, the second the secondary whose detections are fused
	// into the primary's result (at most two). It overrides Channel.
	// Streaming sessions are single-channel; fusion is one-shot only.
	Channels []string `json:"channels,omitempty"`
	// Defense names a registered defense policy (or a "+"-joined chain)
	// to arm on the victim device before sampling, mirroring fault_profile
	// on the other side of the arms race; empty arms nothing. GET /healthz
	// advertises the registered names; unknown ones answer 400. With a
	// defense armed, the sampler runs with retries on so
	// rate-limit denials degrade the result instead of failing the request.
	Defense string `json:"defense,omitempty"`
	// DefenseStrength is the armed defense's knob in [0, 1]; 0 (the
	// default) arms a passthrough, keeping the response byte-identical to
	// an undefended run.
	DefenseStrength float64 `json:"defense_strength,omitempty"`
	// DefenseSeed seeds the defense's randomness (noise walks, jitter); 0
	// derives it from Seed, so the same request always faces the same
	// bit-identical defense.
	DefenseSeed int64 `json:"defense_seed,omitempty"`
}

// EavesdropResponse is the result of one served eavesdropping run.
type EavesdropResponse struct {
	Schema string `json:"schema"`
	// Model is the classifier chosen by device recognition.
	Model string `json:"model"`
	// Text is the eavesdropped credential.
	Text string `json:"text"`
	// Truth is the ground truth the simulated victim actually typed.
	Truth string `json:"truth"`
	// Keys is the number of inferred key presses.
	Keys int `json:"keys"`
	// EstimatedLength is the §5.3 echo-redraw length estimate (-1: none).
	EstimatedLength int `json:"estimated_length"`
	// Stats is the online engine's bookkeeping.
	Stats attack.EngineStats `json:"stats"`
	// Degraded reports that the run recovered from injected or real device
	// faults and the result is partial-confidence. Omitted (false) on
	// clean runs, so fault-free responses are byte-identical to the
	// pre-fault-plane wire format.
	Degraded bool `json:"degraded,omitempty"`
	// Recovery details the sampler's recovery work; present only on
	// degraded responses.
	Recovery *attack.CollectStats `json:"recovery,omitempty"`
	// Channel is the primary side channel the run sampled; omitted for the
	// default KGSL channel, keeping legacy responses byte-identical.
	Channel string `json:"channel,omitempty"`
	// Fusion summarizes a multi-channel run; omitted on single-channel
	// runs.
	Fusion *FusionInfo `json:"fusion,omitempty"`
}

// FusionInfo reports what decision-level fusion did on a multi-channel
// run; the response's top-level fields describe the fused result.
type FusionInfo struct {
	// Channels are the registry names of the fused channels, primary
	// first.
	Channels []string `json:"channels"`
	// PrimaryText and SecondaryText are the per-channel single-channel
	// readings the fusion consumed.
	PrimaryText   string `json:"primary_text"`
	SecondaryText string `json:"secondary_text"`
	// Recovered counts keys inserted on secondary evidence; Flipped counts
	// primary verdicts flipped to their alternate.
	Recovered int `json:"recovered"`
	Flipped   int `json:"flipped"`
}

// TrainRequest is the body of POST /v1/train: warm the registry for a
// configuration without running an eavesdrop.
type TrainRequest struct {
	Device   string `json:"device,omitempty"`
	App      string `json:"app,omitempty"`
	Keyboard string `json:"keyboard,omitempty"`
	// Channel selects the side channel to train for; empty means "kgsl".
	Channel   string `json:"channel,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// TrainResponse reports a (possibly cached) trained model.
type TrainResponse struct {
	Schema string `json:"schema"`
	Model  string `json:"model"`
	Keys   int    `json:"keys"`
	Noise  int    `json:"noise"`
	// Cached is true when the model was already resident before this
	// request.
	Cached bool `json:"cached"`
}

// ExperimentRequest is the body of POST /v1/experiment: run one paper
// table/figure by registry ID.
type ExperimentRequest struct {
	ID        string `json:"id"`
	Quick     bool   `json:"quick,omitempty"`
	Seed      int64  `json:"seed"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ExperimentResponse carries one experiment's table and metrics.
type ExperimentResponse struct {
	Schema  string             `json:"schema"`
	ID      string             `json:"id"`
	Table   string             `json:"table"`
	Metrics map[string]float64 `json:"metrics"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Schema string `json:"schema"`
	// Status is "ok" while serving, "draining" once shutdown began.
	Status string `json:"status"`
	// Models and Training count resident and in-flight registry entries.
	Models   int `json:"models"`
	Training int `json:"training"`
	// Inflight counts requests currently inside the work queues.
	Inflight int `json:"inflight"`
	Shards   int `json:"shards"`
	// Sessions counts resident streaming sessions (created or attached).
	Sessions int `json:"sessions"`
	// Channels lists the registered side-channel names.
	Channels []string `json:"channels"`
	// Defenses lists the registered defense policy names.
	Defenses []string `json:"defenses"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// SessionResponse is the body of POST /v1/sessions (201) and
// DELETE /v1/sessions/{id} (200): the session id and, on creation, the
// path to attach its one SSE stream.
type SessionResponse struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	// Stream is the server-relative path of GET /v1/sessions/{id}/stream.
	Stream string `json:"stream,omitempty"`
}

// StreamSchema identifies the wire format of per-event SSE data payloads
// on a session stream. The closing "result" frame carries the one-shot
// EavesdropResponse (Schema gpuleak-serve/v1) instead.
const StreamSchema = "gpuleak-stream/v1"

// StreamEventData is the JSON data payload of one "key" or "retract" SSE
// frame on a session stream: Algorithm 1's incremental output, one frame
// per engine commit or withdrawal. Frames are compact JSON so routers can
// relay them byte-for-byte.
type StreamEventData struct {
	Schema string `json:"schema"`
	// Seq numbers frames from 1 within the stream; it doubles as the SSE
	// id: field, so a router resuming a broken session can skip frames a
	// client already holds.
	Seq uint64 `json:"seq"`
	// AtUS is the sim-time (microseconds) of the delta that triggered the
	// event — the stream's own clock, not the wall.
	AtUS int64 `json:"at_us"`
	// Kind is "key" or "retract".
	Kind string `json:"kind"`
	// Key is the inferred key (Kind "key" only).
	Key string `json:"key,omitempty"`
	// Alt is the runner-up key and Margin the distance gap to it, the §7.1
	// guessing-strategy inputs (Kind "key" only).
	Alt    string  `json:"alt,omitempty"`
	Margin float64 `json:"margin,omitempty"`
	// Keys is how many keys the engine stands behind after this event; a
	// client holding the stream so far can reconstruct the text by
	// appending on "key" and truncating to Keys on "retract".
	Keys int `json:"keys"`
}

// RoutingKey maps an eavesdrop/session request to its model-shard
// identity — the registry key of the trained model the request will
// consult. Replicas agree on it by construction (it is derived purely
// from the request body), which is what lets a fleet router pin every
// request for one model onto one replica and keep the others cold.
func RoutingKey(req EavesdropRequest) (string, error) {
	scen, err := ResolveScenario(req)
	if err != nil {
		return "", err
	}
	return ChannelKey(TrainConfig(scen.Cfg), scen.Primary()), nil
}

// Scenario is a fully resolved eavesdropping request: the victim
// configuration plus the script the simulated user will type. It is the
// server-side mirror of the facade quick start — Script reproduces
// gpuleak.TypeText (or PracticalSession) exactly, which is what makes
// the served result byte-identical to the library path.
type Scenario struct {
	Cfg       victim.Config
	Text      string
	Volunteer int
	Practical bool
	// Fault is the resolved fault-injection profile (zero: no fault
	// plane) and FaultSeed its schedule seed.
	Fault     fault.Profile
	FaultSeed int64
	// Channels are the resolved channel registry names, primary first;
	// empty means the default single-channel KGSL run.
	Channels []string
	// Defense is the resolved defense policy to arm on the session (nil:
	// none), DefenseStrength its knob and DefenseSeed its randomness seed.
	Defense         defense.Policy
	DefenseStrength float64
	DefenseSeed     int64
}

// Primary returns the scenario's primary channel in canonical model-key
// form: the empty string for the default KGSL channel.
func (s Scenario) Primary() string {
	if len(s.Channels) == 0 {
		return ""
	}
	return channel.Canonical(s.Channels[0])
}

// ResolveScenario validates an EavesdropRequest against the device, app
// and keyboard catalogs and materializes the victim configuration the
// facade quick start would build for it.
func ResolveScenario(req EavesdropRequest) (Scenario, error) {
	if req.Text == "" {
		return Scenario{}, fmt.Errorf("%w: empty text", ErrBadRequest)
	}
	if req.Volunteer < 0 || req.Volunteer >= len(input.Volunteers) {
		return Scenario{}, fmt.Errorf("%w: volunteer must be 0-%d", ErrBadRequest, len(input.Volunteers)-1)
	}
	cfg := victim.Config{Seed: req.Seed, RenderJitter: defaultRenderJitter}
	dev := req.Device
	if dev == "" {
		dev = "OnePlus 8 Pro"
	}
	d, ok := android.DeviceByName(dev)
	if !ok {
		return Scenario{}, fmt.Errorf("%w: unknown device %q", ErrBadRequest, req.Device)
	}
	cfg.Device = d
	app := req.App
	if app == "" {
		app = "Chase"
	}
	a, ok := android.AppByName(app)
	if !ok {
		return Scenario{}, fmt.Errorf("%w: unknown app %q", ErrBadRequest, req.App)
	}
	cfg.App = a
	kb := req.Keyboard
	if kb == "" {
		kb = "gboard"
	}
	l := keyboard.ByName(kb)
	if l == nil {
		return Scenario{}, fmt.Errorf("%w: unknown keyboard %q", ErrBadRequest, req.Keyboard)
	}
	cfg.Keyboard = l
	scen := Scenario{Cfg: cfg, Text: req.Text, Volunteer: req.Volunteer, Practical: req.Practical}
	chans := req.Channels
	if len(chans) == 0 && req.Channel != "" {
		chans = []string{req.Channel}
	}
	if len(chans) > 2 {
		return Scenario{}, fmt.Errorf("%w: at most two channels may be fused, got %d", ErrBadRequest, len(chans))
	}
	for _, name := range chans {
		ch, err := channel.Get(name)
		if err != nil {
			// The error matches channel.ErrUnknownChannel, which statusFor
			// maps onto 400.
			return Scenario{}, fmt.Errorf("resolving request channel: %w", err)
		}
		scen.Channels = append(scen.Channels, ch.Name)
	}
	if req.FaultProfile != "" {
		p, ok := fault.ByName(req.FaultProfile)
		if !ok {
			return Scenario{}, fmt.Errorf("%w: unknown fault profile %q (have %v)",
				ErrBadRequest, req.FaultProfile, fault.Names())
		}
		scen.Fault = p
		scen.FaultSeed = req.FaultSeed
		if scen.FaultSeed == 0 {
			scen.FaultSeed = fault.Seed(req.Seed, 0)
		}
		if scen.Primary() != "" {
			return Scenario{}, fmt.Errorf("%w: fault profiles model the KGSL ioctl path; primary channel %q cannot carry one",
				ErrBadRequest, scen.Channels[0])
		}
	}
	if req.Defense != "" {
		p, err := defense.Get(req.Defense)
		if err != nil {
			// The error matches defense.ErrUnknownDefense, which statusFor
			// maps onto 400.
			return Scenario{}, fmt.Errorf("resolving request defense: %w", err)
		}
		if req.DefenseStrength < 0 || req.DefenseStrength > 1 {
			return Scenario{}, fmt.Errorf("%w: defense strength %g outside [0, 1]",
				ErrBadRequest, req.DefenseStrength)
		}
		scen.Defense = p
		scen.DefenseStrength = req.DefenseStrength
		scen.DefenseSeed = req.DefenseSeed
		if scen.DefenseSeed == 0 {
			scen.DefenseSeed = defense.Seed(req.Seed, 0)
		}
	}
	return scen, nil
}

// defaultRenderJitter matches the realistic jitter attackd and the
// experiment layer's DefaultConfig apply to victim sessions.
const defaultRenderJitter = 0.0001

// Script builds the victim input script: exactly what gpuleak.TypeText
// (volunteer 0) or gpuleak.PracticalSession produce for the same text and
// seed, starting 0.7 s after app launch.
func (s Scenario) Script() input.Script {
	vol := input.Volunteers[s.Volunteer]
	rng := sim.NewRand(s.Cfg.Seed)
	if s.Practical {
		return input.Practical(s.Text, vol, input.DefaultPracticalOptions(), rng, 700*sim.Millisecond)
	}
	return input.Typing(s.Text, vol, input.SpeedAny, rng, 700*sim.Millisecond)
}

// TrainSeed is the fixed offline-phase seed: model identity depends only
// on the configuration, never on which request triggered training.
const TrainSeed = 12345

// TrainConfig derives the controlled collection configuration for a
// victim configuration, the same derivation the experiment layer's model
// cache uses: jitter and background load off, fixed seed.
func TrainConfig(cfg victim.Config) victim.Config {
	t := cfg
	t.RenderJitter = 0
	t.CPULoad = 0
	t.GPULoad = 0
	t.Seed = TrainSeed
	return t
}
