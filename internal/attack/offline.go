package attack

import (
	"context"
	"fmt"
	"math"
	"sort"

	"gpuleak/internal/channel"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// CollectOptions tunes the offline phase.
type CollectOptions struct {
	// Repeats is how many times each key is emulated (paper's bot presses
	// every key repeatedly to confirm deltas are stable).
	Repeats int
	// Workers caps how many collection sessions run concurrently: 1 is
	// fully serial, 0 (the default) uses one worker per CPU. Every task
	// derives its RNG seed from (Config.Seed, task index) alone, so the
	// resulting model is byte-identical at any worker count.
	Workers int
	// Obs, when non-nil, records one offline.task span per collection
	// task on a pre-created child track (offline/NNN) plus device ioctl
	// metrics, without perturbing the model: children are created in
	// index order before fan-out, so the exported stream is identical at
	// any worker count.
	Obs *obs.Tracer
	// Channel names the side channel to collect through (registry name;
	// empty = the default KGSL channel). The resulting model is tagged
	// with the channel and only classifies deltas from it.
	Channel string
}

func (o CollectOptions) withDefaults() CollectOptions {
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	return o
}

// collectInterval is the counter polling period during collection. §7.4:
// read at no more than half the refresh interval, so every frame is
// covered by at least one reading. On 120 Hz panels the default 8 ms
// would merge adjacent frames.
func collectInterval(vsync sim.Time) sim.Time {
	if half := vsync / 2; half < DefaultInterval {
		return half
	}
	return DefaultInterval
}

// ModelKeyForChannel derives the classifier identity from a victim
// configuration and a channel name; the default channel canonicalizes to
// an empty tag so legacy keys are unchanged.
func ModelKeyForChannel(cfg victim.Config, ch string) ModelKey {
	res := cfg.Resolution
	if res.W == 0 {
		res = cfg.Device.DefaultResolution()
	}
	hz := cfg.RefreshHz
	if hz == 0 {
		hz = cfg.Device.DefaultRefreshHz()
	}
	kbName := "gboard"
	if cfg.Keyboard != nil {
		kbName = cfg.Keyboard.Name
	}
	return ModelKey{
		Device:     cfg.Device.Name,
		Resolution: res.String(),
		Keyboard:   kbName,
		RefreshHz:  hz,
		Channel:    channel.Canonical(ch),
	}
}

// labelKind classifies a labeling window of the offline phase. The
// attacker controls the collection device and the bot script, so every
// expected UI event has a known frame time: popups at the press vsync,
// echo updates at the release vsync, popup dismissals one vsync later,
// page-switch redraws before cross-page presses, cursor blinks on a
// strict 0.5 s grid, and the launch frame at the start.
type labelKind int

const (
	lblKey labelKind = iota
	lblEcho
	lblHide
	lblBlink
	lblPageSwitch
	lblLaunch
)

// window is one labeling window: the deltas inside it (a frame may split
// across two reads) sum to the event's exact signature.
type window struct {
	from, to sim.Time
	kind     labelKind
	r        rune
}

// windowLen is the labeling-window length: two polling intervals, but
// never a whole vsync period — the next frame (popup duplication,
// dismissal) must stay out of the window.
func windowLen(interval, vsync sim.Time) sim.Time {
	wlen := 2 * interval
	if wlen > vsync {
		wlen = vsync
	}
	return wlen + sim.Microsecond
}

// labelWindows derives the labeling windows of a materialized bot session
// from its known script, in start-time order.
func labelWindows(sess *victim.Session, script input.Script, wlen sim.Time) []window {
	vsync := sess.Comp.VsyncPeriod()
	var wins []window
	wins = append(wins, window{from: sess.LaunchAt, to: sess.LaunchAt + wlen, kind: lblLaunch})
	curPage := keyboard.PageLower
	for _, ev := range script.Events {
		if ev.Kind != input.EvPress {
			continue
		}
		page, ok := sess.Comp.KB.PageFor(ev.R)
		if !ok {
			continue
		}
		if page != curPage {
			at := sess.Comp.AlignVsync(ev.At - 60*sim.Millisecond)
			wins = append(wins, window{from: at, to: at + wlen, kind: lblPageSwitch})
			curPage = page
		}
		press := sess.Comp.AlignVsync(ev.At)
		echo := sess.Comp.AlignVsync(ev.At + ev.Dur)
		wins = append(wins, window{from: press, to: press + wlen, kind: lblKey, r: ev.R})
		wins = append(wins, window{from: echo, to: echo + wlen, kind: lblEcho})
		wins = append(wins, window{from: echo + vsync, to: echo + vsync + wlen, kind: lblHide})
	}
	if !sess.Cfg.DisableCursorBlink {
		for t := sess.LaunchAt + 500*sim.Millisecond; t < sess.End; t += 500 * sim.Millisecond {
			at := sess.Comp.AlignVsync(t)
			wins = append(wins, window{from: at, to: at + wlen, kind: lblBlink})
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].from < wins[j].from })
	return wins
}

// sampleWindows polls the session's counters and sums each delta into the
// earliest-starting window containing it; a delta belonging to no window
// (e.g. a popup-animation duplication) is discarded — it replays a
// signature that is already labeled. Sampling stops shortly after the
// last window since later deltas could not be labeled anyway. ctx is
// checked at every tick.
func sampleWindows(ctx context.Context, ch channel.Channel, sess *victim.Session, interval sim.Time, wins []window, obsTr *obs.Tracer) ([]trace.Vec, []bool, error) {
	f, err := ch.Open(sess)
	if err != nil {
		return nil, nil, fmt.Errorf("attack: offline phase: %w", err)
	}
	sampler, err := NewSamplerTaxonomy(f, interval, false, ch.Taxonomy)
	if err != nil {
		return nil, nil, err
	}
	sampler.Obs = obsTr
	end := sess.End
	if len(wins) > 0 {
		last := wins[0].to
		for _, w := range wins {
			if w.to > last {
				last = w.to
			}
		}
		if trunc := last + 2*interval; trunc < end {
			end = trunc
		}
	}
	tr, err := sampler.CollectContext(ctx, 0, end)
	if err != nil {
		return nil, nil, err
	}
	deltas := tr.Deltas()

	sums := make([]trace.Vec, len(wins))
	got := make([]bool, len(wins))
	wi := 0
	for _, d := range deltas {
		for wi < len(wins) && wins[wi].to < d.At {
			wi++
		}
		for j := wi; j < len(wins) && wins[j].from < d.At; j++ {
			if d.At > wins[j].from && d.At <= wins[j].to {
				sums[j] = sums[j].Add(d.V)
				got[j] = true
				break
			}
		}
	}
	return sums, got, nil
}

// taskOut is the result of one collection task. Tasks communicate only
// through their index-addressed slot, which is what keeps the merged
// model independent of scheduling.
type taskOut struct {
	key   trace.Vec // lblKey window sum (key tasks)
	keyOK bool

	launch trace.Vec       // lblLaunch window sum (sweep task)
	noise  []NoiseCentroid // labeled non-key signatures, in window time order
}

// collectSweep is task 0 of the offline phase: a single pass over the
// whole alphabet plus one trailing lower-page press. It exists to learn
// everything that is NOT a key centroid — the launch fingerprint and the
// noise signatures: echo redraws at every field length the online phase
// can meet, popup dismissals of every key, page-switch redraws in both
// directions (the trailing press switches symbol→lower) and cursor
// blinks. Its key windows are labeled so press deltas cannot pollute
// adjacent noise windows, then discarded.
func collectSweep(ctx context.Context, ch channel.Channel, interval sim.Time, sess *victim.Session, alphabet []rune, wlen sim.Time, obsTr *obs.Tracer) (taskOut, error) {
	var script input.Script
	t := 600 * sim.Millisecond
	press := func(r rune) {
		script.Events = append(script.Events, input.Event{
			Kind: input.EvPress, R: r, At: t, Dur: 90 * sim.Millisecond,
		})
		t += 420 * sim.Millisecond
	}
	for _, r := range alphabet {
		press(r)
	}
	press(alphabet[0])
	sess.Run(script)

	var sp *obs.Span
	if obsTr.Enabled() {
		sp = obsTr.Start(0, evOfflineTask, obs.Str("kind", "sweep"), obs.Int("keys", len(alphabet)))
	}
	sess.Device.SetMetrics(obsTr.Metrics())
	wins := labelWindows(sess, script, wlen)
	sums, got, err := sampleWindows(ctx, ch, sess, interval, wins, obsTr)
	if err != nil {
		return taskOut{}, err
	}
	sp.End(sess.End)
	var out taskOut
	for j, win := range wins {
		if !got[j] {
			continue
		}
		switch win.kind {
		case lblLaunch:
			// The launch frame doubles as the device-recognition
			// fingerprint (§3.2).
			out.launch = sums[j]
			out.noise = append(out.noise, NoiseCentroid{Class: NoiseLaunch, V: sums[j]})
		case lblEcho:
			out.noise = append(out.noise, NoiseCentroid{Class: NoiseEcho, V: sums[j]})
		case lblHide:
			out.noise = append(out.noise, NoiseCentroid{Class: NoisePopupHide, V: sums[j]})
		case lblBlink:
			out.noise = append(out.noise, NoiseCentroid{Class: NoiseBlink, V: sums[j]})
		case lblPageSwitch:
			out.noise = append(out.noise, NoiseCentroid{Class: NoisePageSwitch, V: sums[j]})
		}
	}
	return out, nil
}

// collectKey is one per-(key, repeat) task: a minimal session pressing a
// single key with nothing else on screen, yielding one candidate centroid
// for that key. Cursor blink is disabled — the sweep task learns blink
// signatures — so the key window is as clean as the hardware allows.
func collectKey(ctx context.Context, ch channel.Channel, cfg victim.Config, interval sim.Time, r rune, repeat int, wlen sim.Time, obsTr *obs.Tracer) (taskOut, error) {
	cfg.DisableCursorBlink = true
	sess := victim.New(cfg)
	script := input.Script{Events: []input.Event{{
		Kind: input.EvPress, R: r, At: 600 * sim.Millisecond, Dur: 90 * sim.Millisecond,
	}}}
	sess.Run(script)

	var sp *obs.Span
	if obsTr.Enabled() {
		sp = obsTr.Start(0, evOfflineTask, obs.Str("kind", "key"), obs.Str("rune", string(r)), obs.Int("repeat", repeat))
	}
	sess.Device.SetMetrics(obsTr.Metrics())
	wins := labelWindows(sess, script, wlen)
	sums, got, err := sampleWindows(ctx, ch, sess, interval, wins, obsTr)
	if err != nil {
		return taskOut{}, err
	}
	sp.End(sess.End)
	var out taskOut
	for j, win := range wins {
		if win.kind == lblKey && got[j] {
			out.key = sums[j]
			out.keyOK = true
		}
	}
	return out, nil
}

// CollectContext runs the offline phase (§3.2, §6): a bot emulates every
// typable key on a controlled device of the given configuration, the
// resulting counter trace is labeled with the known press times, and a
// nearest-centroid classifier with noise signatures is constructed.
//
// The work is decomposed into 1 + len(alphabet)*Repeats independent
// tasks — one noise/launch sweep plus one mini-session per (key, repeat) —
// executed on opts.Workers goroutines. Task i seeds its RNG with
// sim.TaskSeed(cfg.Seed, i), and every task reads its frames from the
// process-wide frame-stats memo (package android), so the model depends
// only on (cfg, opts minus Workers), never on the worker count,
// scheduling or what earlier calls rendered.
//
// Once ctx is done no further task starts, the running ones stop at
// their sampler's next tick, and the call returns the context's error
// instead of a partial model. A run that completes does not depend on
// ctx — cancellation can only abort, never skew.
func CollectContext(ctx context.Context, cfg victim.Config, opts CollectOptions) (*Model, error) {
	ch, err := channel.Get(opts.Channel)
	if err != nil {
		return nil, err
	}
	// Controlled collection environment: the attacker owns this device, so
	// notifications are silenced and the target app launches at once (a
	// foreign-app prelude belongs to a victim's session, and
	// ModelKeyForChannel does not tell a model trained on one apart);
	// cursor blink stays on because its delta signature must be learned as
	// noise.
	cfg.NotifPerMinute = -1
	cfg.CPULoad = 0
	cfg.GPULoad = 0
	cfg.PreLaunch = 0

	baseSeed := cfg.Seed
	taskCfg := func(i int) victim.Config {
		c := cfg
		c.Seed = sim.TaskSeed(baseSeed, i)
		return c
	}

	// The sweep session is created eagerly: it also supplies the vsync
	// period and alphabet that shape the task list.
	sweepSess := victim.New(taskCfg(0))
	opts = opts.withDefaults()
	vsync := sweepSess.Comp.VsyncPeriod()
	interval := collectInterval(vsync)
	wlen := windowLen(interval, vsync)
	alphabet := sweepSess.Comp.KB.TypableRunes()
	if len(alphabet) == 0 {
		return nil, fmt.Errorf("attack: keyboard %q has no typable keys", sweepSess.Comp.KB.Name)
	}

	nKeys := len(alphabet)
	nTasks := 1 + nKeys*opts.Repeats

	// Per-task telemetry tracks are created here, in index order, by the
	// coordinating goroutine — never inside the racing workers — so the
	// merged event stream is independent of scheduling.
	var children []*obs.Tracer
	if opts.Obs != nil {
		children = make([]*obs.Tracer, nTasks)
		for i := range children {
			children[i] = opts.Obs.Child(fmt.Sprintf("offline/%03d", i))
		}
	}
	child := func(i int) *obs.Tracer {
		if children == nil {
			return nil
		}
		return children[i]
	}

	outs, err := parallel.MapCtx(ctx, opts.Workers, nTasks, func(i int) (taskOut, error) {
		if i == 0 {
			return collectSweep(ctx, ch, interval, sweepSess, alphabet, wlen, child(0))
		}
		return collectKey(ctx, ch, taskCfg(i), interval, alphabet[(i-1)%nKeys], (i-1)/nKeys, wlen, child(i))
	})
	if err != nil {
		return nil, err
	}

	m := &Model{Key: ModelKeyForChannel(cfg, ch.Name), Keys: make(map[string]trace.Vec)}

	// Key centroids: keep the smallest-magnitude repeat (a repeat whose
	// window accidentally caught extra work sums high). Tasks are merged
	// in index order, so ties resolve identically at any worker count.
	w := trace.Ones()
	samples := make(map[rune]trace.Vec)
	for i := 1; i < nTasks; i++ {
		if !outs[i].keyOK {
			continue
		}
		r := alphabet[(i-1)%nKeys]
		if prev, ok := samples[r]; !ok || outs[i].key.Norm(w) < prev.Norm(w) {
			samples[r] = outs[i].key
		}
	}
	for r, v := range samples {
		m.Keys[string(r)] = v
	}
	if len(m.Keys) < len(alphabet)*9/10 {
		return nil, fmt.Errorf("attack: offline phase labeled only %d/%d keys", len(m.Keys), len(alphabet))
	}

	// Normalization weights: bring every counter dimension to comparable
	// scale so pixel-count counters do not drown primitive counters.
	m.Weights = weightsFor(m.Keys)

	// Classification thresholds (§5.1), in noise-sigma units (weights are
	// 1/sigma per dimension): Cth caps how perturbed an accepted key press
	// may be; NoiseTol is the tighter bound for matching the deterministic
	// non-key redraw signatures.
	m.Cth = 12
	m.NoiseTol = 4

	// Noise centroids and the launch fingerprint come from the sweep task.
	// Duplication replays never land in a labeling window, so every
	// labeled non-key window is a genuine noise signature.
	m.Launch = outs[0].launch
	seen := map[string]bool{}
	for _, nc := range outs[0].noise {
		sig := fmt.Sprintf("%v", nc.V)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		m.Noise = append(m.Noise, nc)
	}
	sort.Slice(m.Noise, func(i, j int) bool {
		if m.Noise[i].Class != m.Noise[j].Class {
			return m.Noise[i].Class < m.Noise[j].Class
		}
		return m.Noise[i].V.Norm(m.Weights) < m.Noise[j].V.Norm(m.Weights)
	})
	return m, nil
}

// weightsFor computes noise-aware per-dimension weights. Each counter's
// observation noise has two parts: a quantization floor (counters are
// integers; partial-frame reads truncate) and a component proportional to
// magnitude (render jitter scales with the amount drawn). Weighting by
// 1/sigma makes one unit of weighted distance one noise standard
// deviation on every dimension, so small counters (tens of primitives)
// no longer drown in their own rounding while large pixel counters keep
// their full discriminative power.
func weightsFor(keys map[string]trace.Vec) trace.Vec {
	const (
		quantFloor = 2.0   // counter quantization noise, in counts
		jitterRef  = 0.004 // reference relative rendering jitter
	)
	var scale trace.Vec
	for _, c := range keys {
		for i, x := range c {
			if a := abs(x); a > scale[i] {
				scale[i] = a
			}
		}
	}
	var w trace.Vec
	for i, s := range scale {
		sigma := math.Sqrt(quantFloor*quantFloor + jitterRef*s*jitterRef*s)
		w[i] = 1 / sigma
	}
	return w
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
