// Package victim is the discrete-event simulation of the victim
// smartphone: it converts a user input script into the GPU frame timeline
// (popups, echo updates, cursor blinks, notifications, app-switch
// animations, background GPU load) and exposes the resulting performance
// counter register file through a KGSL device file, together with the
// ground-truth event log the experiments score against.
package victim

import (
	"cmp"
	"math"
	"slices"

	"gpuleak/internal/adreno"
	"gpuleak/internal/android"
	"gpuleak/internal/geom"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

// Config selects the device configuration and environment of one session.
type Config struct {
	Device     android.DeviceModel
	Resolution geom.Size // zero value = device default
	RefreshHz  int       // 0 = device default
	Keyboard   *keyboard.Layout
	App        *android.App
	Seed       int64

	// CPULoad and GPULoad are concurrent background workloads in [0, 1]
	// (§7.3).
	CPULoad float64
	GPULoad float64

	// NotifPerMinute is the arrival rate of system notifications (§3.4
	// system noise). Defaults to 2/min when zero.
	NotifPerMinute float64

	// RenderJitter is the relative per-frame variation of rendering work
	// (anti-aliasing, subpixel positioning, shadow sampling make real
	// redraws not bit-identical). 0 disables; real devices sit around
	// 0.003-0.006.
	RenderJitter float64

	// DisablePopups models the §9.1 mitigation (popup feedback turned off
	// in keyboard settings).
	DisablePopups bool
	// Autofill models the §9.3 password-manager/biometric mitigation: the
	// credential is filled in one frame instead of being typed key by key.
	Autofill bool
	// PreLaunch inserts a phase of foreign-app usage of this duration
	// before the target app launches; the attack's monitoring service
	// (Figure 4) must detect the launch before eavesdropping.
	PreLaunch sim.Time
	// DisableCursorBlink removes the cursor-blink noise source (used by
	// controlled experiments).
	DisableCursorBlink bool
}

func (c Config) withDefaults() Config {
	if c.Resolution == (geom.Size{}) {
		c.Resolution = c.Device.DefaultResolution()
	}
	if c.RefreshHz == 0 {
		c.RefreshHz = c.Device.DefaultRefreshHz()
	}
	if c.Keyboard == nil {
		c.Keyboard = keyboard.GBoard
	}
	if c.App == nil {
		c.App = android.Chase
	}
	if c.NotifPerMinute == 0 {
		c.NotifPerMinute = 2
	}
	return c
}

// victimUIPID is the GL context the victim's UI renders under; the
// attacker's process never submits GPU work, which is why the sanctioned
// per-context GL counters (adreno.PerfMonitor) see nothing and the attack
// must read the global registers through the device file (§3.3).
const victimUIPID = 1000

// TruthKind classifies ground-truth events.
type TruthKind int

// Ground-truth event kinds.
const (
	TruthPress TruthKind = iota
	TruthBackspace
	TruthSwitchAway
	TruthSwitchBack
	TruthNotif
)

// TruthEvent is one ground-truth user/system event with the time at which
// its first UI frame was submitted.
type TruthEvent struct {
	At   sim.Time
	Kind TruthKind
	R    rune
}

// Session is a fully materialized victim run: GPU timeline + ground truth.
type Session struct {
	Cfg    Config
	Comp   *android.Compositor
	GPU    *adreno.GPU
	Device *kgsl.Device
	Truth  []TruthEvent

	// LaunchAt is when the target app's first frame renders; the attack
	// starts reading counters here.
	LaunchAt sim.Time
	// End is the time of the last submitted frame.
	End sim.Time

	rng *sim.Rand
}

// frameReq is one pending frame before chronological submission. A zero
// dur means "derive from the pixel workload".
type frameReq struct {
	at    sim.Time
	stats render.FrameStats
	dur   sim.Time
}

// span is a half-open time interval.
type span struct{ from, to sim.Time }

// lenStep records the echo length from a point in time onward.
type lenStep struct {
	at sim.Time
	n  int
}

// New creates a session; call Run to materialize a script.
func New(cfg Config) *Session {
	cfg = cfg.withDefaults()
	gpu := adreno.NewGPU(cfg.Device.GPU)
	dev := kgsl.NewDevice(gpu)
	s := &Session{
		Cfg:    cfg,
		Comp:   android.NewCompositor(cfg.Device, cfg.Resolution, cfg.RefreshHz, cfg.App, cfg.Keyboard),
		GPU:    gpu,
		Device: dev,
		rng:    sim.NewRand(cfg.Seed),
	}
	if cfg.CPULoad > 0 {
		latRng := s.rng.Split()
		load := cfg.CPULoad
		dev.ReadLatency = func(t sim.Time) sim.Time {
			// Baseline syscall cost plus scheduler preemption: under load
			// the monitoring process loses the CPU with probability ~load
			// and waits out other threads' timeslices.
			d := sim.Time(30)
			if latRng.Bool(0.8 * load * load) {
				d += sim.Time(latRng.Exp(load * 16000)) // multi-ms stalls at 75%+
			}
			return t + d
		}
	}
	return s
}

// Run materializes the script into GPU frames and ground truth. It may be
// called once per session.
func (s *Session) Run(script input.Script) {
	comp := s.Comp
	vsync := comp.VsyncPeriod()
	s.LaunchAt = comp.AlignVsync(16*sim.Millisecond + s.Cfg.PreLaunch)

	end := script.End() + 800*sim.Millisecond
	if end < s.LaunchAt+sim.Second {
		end = s.LaunchAt + sim.Second
	}

	frames := make([]frameReq, 0, s.frameCap(script, end))
	add := func(at sim.Time, st render.FrameStats) {
		if !st.IsZero() {
			frames = append(frames, frameReq{at: at, stats: st})
		}
	}

	// Foreign-app usage before the target app launches: sporadic
	// scrolling/animation frames the monitor must not confuse with the
	// launch fingerprint.
	if s.Cfg.PreLaunch > 0 {
		preRng := s.rng.Split()
		t := comp.AlignVsync(16 * sim.Millisecond)
		i := 0
		for t < s.LaunchAt-200*sim.Millisecond {
			add(comp.AlignVsync(t), comp.SwitchFrameStats((i*3+1)%10, 10))
			t += sim.Time(120_000 + preRng.Intn(400_000))
			i++
		}
	}

	// App launch: full-screen first render (device fingerprint).
	add(s.LaunchAt, comp.LaunchStats())

	// Echo length timeline, page tracking, in-target intervals.
	lenSteps := []lenStep{{0, 0}}
	curLen := 0
	curPage := keyboard.PageLower
	var excursions []span
	pendingAway := sim.Time(-1)

	if s.Cfg.Autofill {
		// A password manager inserts the whole credential at once: a
		// single field redraw, no popups, no per-key frames. The presses
		// remain ground truth (the credential content), but the GPU sees
		// only one echo update.
		n := 0
		var fillAt sim.Time
		for _, ev := range script.Events {
			if ev.Kind != input.EvPress {
				continue
			}
			if n == 0 {
				fillAt = ev.At
			}
			n++
			s.Truth = append(s.Truth, TruthEvent{At: comp.AlignVsync(ev.At), Kind: TruthPress, R: ev.R})
		}
		if n > 0 {
			if n > 24 {
				n = 24
			}
			curLen = n
			lenSteps = append(lenSteps, lenStep{fillAt, n})
			add(comp.AlignVsync(fillAt), comp.EchoStats(n, false))
		}
	}

	for _, ev := range script.Events {
		if s.Cfg.Autofill {
			break
		}
		switch ev.Kind {
		case input.EvPress:
			page, ok := s.Cfg.Keyboard.PageFor(ev.R)
			if !ok {
				continue
			}
			if page != curPage {
				// The user taps the shift / ?123 key first; the IME redraws
				// with the new page.
				add(comp.AlignVsync(ev.At-60*sim.Millisecond), comp.KeyboardRedrawStats(page))
				curPage = page
			}
			pressFrame := comp.AlignVsync(ev.At)
			if !s.Cfg.DisablePopups {
				st := comp.PopupShowStats(page, ev.R)
				add(pressFrame, st)
				if comp.KB.Popup.AnimFrames > 1 && s.rng.Bool(comp.KB.Popup.DupProb) {
					// Rich popup entry animation re-renders the same state:
					// a duplicated, equal-magnitude delta (§5.1).
					add(pressFrame+vsync, st)
				}
			}
			release := ev.At + ev.Dur
			curLen++
			if curLen > 24 {
				curLen = 24
			}
			lenSteps = append(lenSteps, lenStep{release, curLen})
			add(comp.AlignVsync(release), comp.EchoStats(curLen, false))
			if !s.Cfg.DisablePopups {
				add(comp.AlignVsync(release)+vsync, comp.PopupHideStats(page, ev.R))
			}
			s.Truth = append(s.Truth, TruthEvent{At: pressFrame, Kind: TruthPress, R: ev.R})

		case input.EvBackspace:
			release := ev.At + ev.Dur
			if curLen > 0 {
				curLen--
			}
			lenSteps = append(lenSteps, lenStep{release, curLen})
			// Backspace has no popup on most keyboards (§5.3): only the
			// echo redraw betrays it.
			add(comp.AlignVsync(release), comp.EchoStats(curLen, false))
			s.Truth = append(s.Truth, TruthEvent{At: comp.AlignVsync(release), Kind: TruthBackspace})

		case input.EvSwitchAway:
			pendingAway = ev.At
			t := comp.AlignVsync(ev.At)
			for i := 0; i < 10; i++ {
				add(t, comp.SwitchFrameStats(i, 10))
				t += vsync
			}
			s.Truth = append(s.Truth, TruthEvent{At: comp.AlignVsync(ev.At), Kind: TruthSwitchAway})

		case input.EvSwitchBack:
			// Foreign-app activity between away and back: scrolling and
			// animation frames at irregular intervals.
			if pendingAway >= 0 {
				excursions = append(excursions, span{from: pendingAway, to: ev.At + 300*sim.Millisecond})
				t := comp.AlignVsync(pendingAway) + 12*vsync
				i := 0
				for t < ev.At-100*sim.Millisecond {
					add(comp.AlignVsync(t), comp.SwitchFrameStats((i*5+3)%10, 10))
					t += sim.Time(80_000 + s.rng.Intn(320_000))
					i++
				}
				pendingAway = -1
			}
			t := comp.AlignVsync(ev.At)
			for i := 0; i < 10; i++ {
				add(t, comp.SwitchFrameStats(9-i, 10))
				t += vsync
			}
			// Returning re-renders the target app fully.
			add(t, comp.LaunchStats())
			s.Truth = append(s.Truth, TruthEvent{At: comp.AlignVsync(ev.At), Kind: TruthSwitchBack})

		case input.EvNotifView:
			// Glancing at the notification bar: a couple of status-bar
			// redraws, not enough to look like an app switch burst.
			add(comp.AlignVsync(ev.At), comp.NotifStats(2))
			add(comp.AlignVsync(ev.At)+3*vsync, comp.NotifStats(3))
			s.Truth = append(s.Truth, TruthEvent{At: comp.AlignVsync(ev.At), Kind: TruthNotif})
		}
	}

	// Cursor blinking: strict 0.5 s cadence while the field is focused
	// (§5.3). Suppressed during excursions.
	if !s.Cfg.DisableCursorBlink {
		on := false
		for t := s.LaunchAt + 500*sim.Millisecond; t < end; t += 500 * sim.Millisecond {
			if inSpan(excursions, t) {
				continue
			}
			on = !on
			add(comp.AlignVsync(t), comp.CursorStats(lenAt(lenSteps, t), on))
		}
	}

	// System notifications: Poisson arrivals.
	if s.Cfg.NotifPerMinute > 0 {
		notifRng := s.rng.Split()
		t := s.LaunchAt
		icons := 0
		for {
			t += sim.Time(notifRng.Exp(float64(sim.Minute) / s.Cfg.NotifPerMinute))
			if t >= end {
				break
			}
			icons = icons%4 + 1
			add(comp.AlignVsync(t), comp.NotifStats(icons))
			s.Truth = append(s.Truth, TruthEvent{At: comp.AlignVsync(t), Kind: TruthNotif})
		}
	}

	// Concurrent GPU workload (§7.3): a background 3D renderer draws a
	// frame into its own (small) surface with probability GPULoad per
	// vsync. The utilization knob controls how often the GPU is busy with
	// foreign work; each foreign frame also leaks a modest amount into
	// the global counters.
	if s.Cfg.GPULoad > 0 {
		loadRng := s.rng.Split()
		base := comp.LaunchStats()
		for t := s.LaunchAt; t < end; t += vsync {
			if !loadRng.Bool(s.Cfg.GPULoad) {
				continue
			}
			// Foreign frames vary over two orders of magnitude (a 3D app
			// alternates cheap incremental frames with full scene
			// redraws); log-uniform magnitude reproduces the §7.3 curve.
			u := loadRng.Float64()
			f := 0.00022 * s.Cfg.GPULoad * math.Pow(10, 1.3*u)
			st := scaleStats(base, f)
			at := t + sim.Time(loadRng.Intn(int(vsync/2)+1))
			dur := sim.Time(float64(vsync) * s.Cfg.GPULoad * 0.9)
			frames = append(frames, frameReq{at: at, stats: st, dur: dur})
		}
	}

	// PNC-style decorative login animation (§9.3): a ~10 fps ornament.
	if s.Cfg.App.Animated {
		phase := 0
		for t := s.LaunchAt + vsync; t < end; t += 6 * vsync {
			if inSpan(excursions, t) {
				continue
			}
			add(t, comp.AnimFrameStats(phase))
			phase++
		}
	}

	// Submit chronologically, applying render jitter.
	slices.SortStableFunc(frames, func(a, b frameReq) int { return cmp.Compare(a.at, b.at) })
	jitterRng := s.rng.Split()
	s.GPU.Grow(len(frames))
	for _, f := range frames {
		st := f.stats
		if s.Cfg.RenderJitter > 0 {
			eps := jitterRng.Norm(0, s.Cfg.RenderJitter)
			if eps < -0.1 {
				eps = -0.1
			}
			if eps > 0.1 {
				eps = 0.1
			}
			st = scaleStats(st, 1+eps)
		}
		dur := f.dur
		if dur == 0 {
			dur = comp.FrameDuration(st, s.Cfg.GPULoad)
		}
		s.GPU.Submit(adreno.Frame{Start: f.at, End: f.at + dur, PID: victimUIPID, Stats: st})
	}
	slices.SortStableFunc(s.Truth, func(a, b TruthEvent) int { return cmp.Compare(a.At, b.At) })
	s.End = end
	if le := s.GPU.LastEnd(); le > s.End {
		s.End = le
	}
}

// frameCap estimates how many frames Run submits for script over
// [0, end), so that the frame slice is allocated once: each script event
// at its usual frame count, and the session's timers — cursor blink,
// notifications, background GPU load and the login animation — at their
// rates over [LaunchAt, end). Random extras (a page switch and a
// duplicated popup on the same press, a burst of notifications) can
// exceed it; the appends past it grow the slice as usual.
func (s *Session) frameCap(script input.Script, end sim.Time) int {
	vsync := s.Comp.VsyncPeriod()
	n := 1 // the launch frame
	if s.Cfg.PreLaunch > 0 {
		n += int(s.Cfg.PreLaunch/(120*sim.Millisecond)) + 1 // foreign frames every 120 ms or more
	}
	if s.Cfg.Autofill {
		n++ // one echo redraw
	} else {
		perPress := 2 // the echo, and a page switch or a duplicated popup
		if !s.Cfg.DisablePopups {
			perPress += 2 // popup show and hide
		}
		away := sim.Time(-1)
		for _, ev := range script.Events {
			switch ev.Kind {
			case input.EvPress:
				n += perPress
			case input.EvBackspace:
				n++
			case input.EvSwitchAway:
				n += 10
				away = ev.At
			case input.EvSwitchBack:
				n += 11 // the switch animation and the re-launch
				if away >= 0 {
					n += int((ev.At - away) / (240 * sim.Millisecond)) // foreign frames every 80–400 ms
					away = -1
				}
			case input.EvNotifView:
				n += 2
			}
		}
	}
	live := end - s.LaunchAt
	if !s.Cfg.DisableCursorBlink {
		n += int(live / (500 * sim.Millisecond))
	}
	n += int(float64(live)/float64(sim.Minute)*s.Cfg.NotifPerMinute) + 1
	if s.Cfg.GPULoad > 0 {
		n += int(float64(live/vsync)*s.Cfg.GPULoad) + 1
	}
	if s.Cfg.App.Animated {
		n += int(live/(6*vsync)) + 1
	}
	return n
}

func inSpan(spans []span, t sim.Time) bool {
	for _, sp := range spans {
		if t >= sp.from && t < sp.to {
			return true
		}
	}
	return false
}

func lenAt(steps []lenStep, t sim.Time) int {
	n := 0
	for _, st := range steps {
		if st.at > t {
			break
		}
		n = st.n
	}
	return n
}

// scaleStats shrinks frame statistics by a factor in (0, 1].
func scaleStats(st render.FrameStats, f float64) render.FrameStats {
	mul := func(v uint64) uint64 { return uint64(float64(v) * f) }
	return render.FrameStats{
		VisiblePrimAfterLRZ:   mul(st.VisiblePrimAfterLRZ),
		FullTiles8x8:          mul(st.FullTiles8x8),
		PartialTiles8x8:       mul(st.PartialTiles8x8),
		VisiblePixelAfterLRZ:  mul(st.VisiblePixelAfterLRZ),
		SupertileActiveCycles: mul(st.SupertileActiveCycles),
		SuperTiles:            mul(st.SuperTiles),
		Tiles8x4:              mul(st.Tiles8x4),
		FullyCovered8x4:       mul(st.FullyCovered8x4),
		PCPrimitives:          mul(st.PCPrimitives),
		SPComponents:          mul(st.SPComponents),
		LRZAssignPrimitives:   mul(st.LRZAssignPrimitives),
		TotalPixels:           mul(st.TotalPixels),
	}
}

// Open gives the attacking application a handle on the GPU device file.
func (s *Session) Open() (*kgsl.File, error) {
	return s.Device.Open(kgsl.UntrustedApp(4242))
}

// Presses returns the ground-truth key presses in time order.
func (s *Session) Presses() []TruthEvent {
	var out []TruthEvent
	for _, e := range s.Truth {
		if e.Kind == TruthPress {
			out = append(out, e)
		}
	}
	return out
}

// TypedText returns the ground-truth credential after corrections.
func (s *Session) TypedText() string {
	var out []rune
	for _, e := range s.Truth {
		switch e.Kind {
		case TruthPress:
			out = append(out, e.R)
		case TruthBackspace:
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		}
	}
	return string(out)
}
