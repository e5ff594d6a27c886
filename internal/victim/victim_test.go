package victim

import (
	"slices"
	"sync"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/sim"
)

func runSession(t *testing.T, cfg Config, text string) *Session {
	t.Helper()
	s := New(cfg)
	r := sim.NewRand(cfg.Seed + 1)
	script := input.Typing(text, input.Volunteers[0], input.SpeedAny, r, 500*sim.Millisecond)
	s.Run(script)
	return s
}

func baseConfig() Config {
	return Config{Device: android.OnePlus8Pro, Seed: 42, NotifPerMinute: 0.5}
}

func TestSessionProducesFrames(t *testing.T) {
	s := runSession(t, baseConfig(), "hello")
	if s.GPU.FrameCount() < 11 { // launch + 5*(popup, echo, hide) minimum
		t.Fatalf("frame count = %d", s.GPU.FrameCount())
	}
	if s.End <= s.LaunchAt {
		t.Fatal("session has no duration")
	}
}

func TestGroundTruthMatchesScript(t *testing.T) {
	s := runSession(t, baseConfig(), "secret99")
	presses := s.Presses()
	if len(presses) != 8 {
		t.Fatalf("press count = %d", len(presses))
	}
	if got := s.TypedText(); got != "secret99" {
		t.Fatalf("TypedText = %q", got)
	}
	for i := 1; i < len(presses); i++ {
		if presses[i].At < presses[i-1].At {
			t.Fatal("presses out of order")
		}
	}
}

func TestFramesChronological(t *testing.T) {
	s := runSession(t, baseConfig(), "abcdefgh")
	frames := s.GPU.Frames()
	for i := 1; i < len(frames); i++ {
		if frames[i].Start < frames[i-1].Start {
			t.Fatal("GPU frames out of order")
		}
	}
}

func TestCountersAdvanceOnPress(t *testing.T) {
	s := runSession(t, baseConfig(), "w")
	f, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	press := s.Presses()[0].At
	before, _ := f.ReadSelected(press - 5*sim.Millisecond)
	after, _ := f.ReadSelected(press + 50*sim.Millisecond)
	if after[0] <= before[0] {
		t.Fatal("press did not move the prim counter")
	}
}

func TestSameKeySameDelta(t *testing.T) {
	// §3.4: repeated presses of the same key produce the same delta.
	// Use a quiet config (no notifications, no blink) to isolate popups.
	cfg := baseConfig()
	cfg.NotifPerMinute = -1 // negative disables (guard in code treats >0)
	cfg.DisableCursorBlink = true
	cfg.Seed = 7
	s := New(cfg)
	r := sim.NewRand(3)
	script := input.Typing("kk", input.Volunteers[1], input.SpeedSlow, r, 500*sim.Millisecond)
	s.Run(script)
	f, _ := s.Open()
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	p := s.Presses()
	d1 := deltaAround(t, f, p[0].At)
	d2 := deltaAround(t, f, p[1].At)
	if d1 != d2 {
		t.Fatalf("same-key deltas differ: %d vs %d", d1, d2)
	}
	if d1 == 0 {
		t.Fatal("zero popup delta")
	}
}

func deltaAround(t *testing.T, f interface {
	ReadSelected(sim.Time) ([adreno.NumSelected]uint64, error)
}, at sim.Time) uint64 {
	t.Helper()
	before, err := f.ReadSelected(at - 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	after, err := f.ReadSelected(at + 30*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return after[0] - before[0]
}

func TestDifferentKeysDifferentDeltas(t *testing.T) {
	cfg := baseConfig()
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	s := New(cfg)
	r := sim.NewRand(4)
	script := input.Typing("wn", input.Volunteers[1], input.SpeedSlow, r, 500*sim.Millisecond)
	s.Run(script)
	f, _ := s.Open()
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	p := s.Presses()
	dw := deltaAround(t, f, p[0].At)
	dn := deltaAround(t, f, p[1].At)
	if dw == dn {
		t.Fatalf("'w' and 'n' deltas equal: %d", dw)
	}
}

func TestDisablePopupsRemovesPopupFrames(t *testing.T) {
	quiet := baseConfig()
	quiet.NotifPerMinute = -1
	quiet.DisableCursorBlink = true
	with := New(quiet)
	r1 := sim.NewRand(5)
	with.Run(input.Typing("abc", input.Volunteers[0], input.SpeedAny, r1, 500*sim.Millisecond))

	quiet.DisablePopups = true
	without := New(quiet)
	r2 := sim.NewRand(5)
	without.Run(input.Typing("abc", input.Volunteers[0], input.SpeedAny, r2, 500*sim.Millisecond))

	if without.GPU.FrameCount() >= with.GPU.FrameCount() {
		t.Fatalf("popup disabling did not reduce frames: %d vs %d",
			without.GPU.FrameCount(), with.GPU.FrameCount())
	}
}

func TestGPULoadAddsFrames(t *testing.T) {
	idle := runSession(t, baseConfig(), "abc")
	loaded := baseConfig()
	loaded.GPULoad = 0.5
	l := runSession(t, loaded, "abc")
	if l.GPU.FrameCount() <= idle.GPU.FrameCount()*2 {
		t.Fatalf("GPU load frames missing: %d vs %d", l.GPU.FrameCount(), idle.GPU.FrameCount())
	}
}

func TestCPULoadDelaysReads(t *testing.T) {
	cfg := baseConfig()
	cfg.CPULoad = 0.9
	s := runSession(t, cfg, "abc")
	f, _ := s.Open()
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	// With 90% CPU load the effective read time is often shifted by
	// milliseconds; detect by comparing against an unloaded twin.
	cfg2 := baseConfig()
	s2 := runSession(t, cfg2, "abc")
	f2, _ := s2.Open()
	if err := f2.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := 0; i < 200; i++ {
		at := s.LaunchAt + sim.Time(i)*8*sim.Millisecond
		a, _ := f.ReadSelected(at)
		b, _ := f2.ReadSelected(at)
		if a != b {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("CPU load had no observable effect")
	}
}

func TestAppSwitchProducesBurst(t *testing.T) {
	cfg := baseConfig()
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	s := New(cfg)
	script := input.Script{Events: []input.Event{
		{Kind: input.EvPress, R: 'a', At: 500 * sim.Millisecond, Dur: 80 * sim.Millisecond},
		{Kind: input.EvSwitchAway, At: sim.Second},
		{Kind: input.EvSwitchBack, At: 4 * sim.Second},
		{Kind: input.EvPress, R: 'b', At: 5 * sim.Second, Dur: 80 * sim.Millisecond},
	}}
	s.Run(script)
	// Count frames in the switch-away burst window: ~10 within 200 ms.
	n := 0
	for _, f := range s.GPU.Frames() {
		if f.Start >= sim.Second && f.Start < sim.Second+250*sim.Millisecond {
			n++
		}
	}
	if n < 8 {
		t.Fatalf("switch burst frames = %d, want >= 8", n)
	}
	if got := s.TypedText(); got != "ab" {
		t.Fatalf("TypedText = %q", got)
	}
}

func TestBackspaceReducesEcho(t *testing.T) {
	cfg := baseConfig()
	s := New(cfg)
	script := input.Script{Events: []input.Event{
		{Kind: input.EvPress, R: 'a', At: 500 * sim.Millisecond, Dur: 80 * sim.Millisecond},
		{Kind: input.EvPress, R: 'b', At: sim.Second, Dur: 80 * sim.Millisecond},
		{Kind: input.EvBackspace, At: 2 * sim.Second, Dur: 80 * sim.Millisecond},
	}}
	s.Run(script)
	if got := s.TypedText(); got != "a" {
		t.Fatalf("TypedText = %q, want \"a\"", got)
	}
}

func TestUppercaseTriggersPageSwitch(t *testing.T) {
	cfg := baseConfig()
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	lower := New(cfg)
	r := sim.NewRand(6)
	lower.Run(input.Typing("aa", input.Volunteers[0], input.SpeedSlow, r, 500*sim.Millisecond))

	upper := New(cfg)
	r2 := sim.NewRand(6)
	upper.Run(input.Typing("aA", input.Volunteers[0], input.SpeedSlow, r2, 500*sim.Millisecond))
	// The uppercase run needs at least one extra page-switch redraw frame.
	if upper.GPU.FrameCount() <= lower.GPU.FrameCount() {
		t.Fatalf("page switch frame missing: %d vs %d", upper.GPU.FrameCount(), lower.GPU.FrameCount())
	}
}

func TestAnimatedAppEmitsContinuousFrames(t *testing.T) {
	cfg := baseConfig()
	cfg.App = android.PNC
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	s := runSession(t, cfg, "ab")
	plain := baseConfig()
	plain.NotifPerMinute = -1
	plain.DisableCursorBlink = true
	p := runSession(t, plain, "ab")
	if s.GPU.FrameCount() < p.GPU.FrameCount()+8 {
		t.Fatalf("PNC animation frames missing: %d vs %d", s.GPU.FrameCount(), p.GPU.FrameCount())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runSession(t, baseConfig(), "determinism")
	b := runSession(t, baseConfig(), "determinism")
	if a.GPU.FrameCount() != b.GPU.FrameCount() {
		t.Fatal("frame counts differ across identical runs")
	}
	fa, _ := a.Open()
	fb, _ := b.Open()
	if err := fa.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	if err := fb.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	va, _ := fa.ReadSelected(a.End)
	vb, _ := fb.ReadSelected(b.End)
	if va != vb {
		t.Fatal("final counter values differ across identical runs")
	}
}

// TestConcurrentSessionsMatchSerial builds sessions of two configurations
// on 8 goroutines at once, sharing the process-wide frame-stats memo
// while it fills, and requires every GPU timeline to equal the same
// session built serially afterwards from the warm memo.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	cfgs := []Config{
		{Device: android.Pixel5, App: android.Amex, Keyboard: keyboard.Swift, Seed: 3},
		{Device: android.LGV30, App: android.PNC, Keyboard: keyboard.Pinyin, Seed: 4, RenderJitter: 0.004, GPULoad: 0.3},
	}
	const sessions, workers = 16, 8
	build := func(i int) []adreno.Frame {
		cfg := cfgs[i%len(cfgs)]
		cfg.Seed += int64(i)
		s := New(cfg)
		s.Run(input.Typing("Pa55 word!", input.Volunteers[i%5], input.SpeedAny, sim.NewRand(cfg.Seed), 500*sim.Millisecond))
		return s.GPU.Frames()
	}
	concurrent := make([][]adreno.Frame, sessions)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < sessions; i += workers {
				concurrent[i] = build(i)
			}
		}(w)
	}
	wg.Wait()
	for i := range concurrent {
		if serial := build(i); !slices.Equal(concurrent[i], serial) {
			t.Fatalf("session %d: concurrent build differs from the serial one (%d vs %d frames)",
				i, len(concurrent[i]), len(serial))
		}
	}
}

func TestPowerModel(t *testing.T) {
	pm := DefaultPowerModel()
	// Faster polling costs more.
	fast := pm.DrainMilliwatts(4 * sim.Millisecond)
	slow := pm.DrainMilliwatts(32 * sim.Millisecond)
	if fast <= slow {
		t.Fatalf("polling rate has no cost: %v vs %v", fast, slow)
	}
	// 2h of default-rate monitoring stays within the paper's <=~4% bound.
	for _, dev := range []android.DeviceModel{android.LGV30, android.OnePlus8Pro, android.Pixel2, android.OnePlus7Pro} {
		pct := pm.ExtraBatteryPercent(dev, 8*sim.Millisecond, 2*sim.Hour)
		if pct <= 0 || pct > 4.5 {
			t.Errorf("%s: 2h battery cost %v%% out of regime", dev.Name, pct)
		}
	}
	// Degenerate interval does not divide by zero.
	if pm.DrainMilliwatts(0) <= 0 {
		t.Fatal("zero-interval drain")
	}
	// Bigger battery, smaller percentage.
	big := pm.ExtraBatteryPercent(android.OnePlus8Pro, 8*sim.Millisecond, sim.Hour)
	small := pm.ExtraBatteryPercent(android.Pixel2, 8*sim.Millisecond, sim.Hour)
	if big >= small {
		t.Fatalf("battery size ordering wrong: %v vs %v", big, small)
	}
}

func TestAutofillSingleEchoFrame(t *testing.T) {
	cfg := baseConfig()
	cfg.Autofill = true
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	s := runSession(t, cfg, "filled99")
	if got := s.TypedText(); got != "filled99" {
		t.Fatalf("TypedText = %q", got)
	}
	// Launch + exactly one echo frame: no popups, no dismissals.
	if n := s.GPU.FrameCount(); n != 2 {
		t.Fatalf("autofill produced %d frames, want 2 (launch + fill)", n)
	}
}

func TestPreLaunchForeignPhase(t *testing.T) {
	cfg := baseConfig()
	cfg.PreLaunch = 4 * sim.Second
	cfg.NotifPerMinute = -1
	cfg.DisableCursorBlink = true
	s := New(cfg)
	script := input.Typing("after", input.Volunteers[0], input.SpeedAny,
		sim.NewRand(2), cfg.PreLaunch+800*sim.Millisecond)
	s.Run(script)
	if s.LaunchAt < cfg.PreLaunch {
		t.Fatalf("launch at %v, want after pre-launch phase", s.LaunchAt)
	}
	// Foreign frames exist before the launch.
	foreign := 0
	for _, f := range s.GPU.Frames() {
		if f.Start < s.LaunchAt-300*sim.Millisecond {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("no foreign-app frames before launch")
	}
	if got := s.TypedText(); got != "after" {
		t.Fatalf("TypedText = %q", got)
	}
}
