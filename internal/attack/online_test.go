package attack

import (
	"testing"

	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// tinyModel builds a hand-crafted classifier with two keys and two noise
// signatures so engine mechanics can be tested in isolation from the
// full simulation.
func tinyModel() *Model {
	vec := func(vals ...float64) trace.Vec {
		var v trace.Vec
		copy(v[:], vals)
		return v
	}
	return &Model{
		Key:      ModelKey{Device: "test", Keyboard: "test"},
		Weights:  trace.Ones(),
		Cth:      12,
		NoiseTol: 4,
		Keys: map[string]trace.Vec{
			"a": vec(100, 40, 10, 1000),
			"b": vec(160, 70, 25, 1400),
		},
		Noise: []NoiseCentroid{
			{Class: NoisePopupHide, V: vec(90, 35, 8, 900)},
			{Class: NoiseEcho, V: vec(6, 2, 1, 90)},
			{Class: NoiseEcho, V: vec(8, 3, 1, 95)},
			{Class: NoiseBlink, V: vec(2, 1, 0, 3)},
		},
		Launch: vec(500, 200, 50, 5000),
	}
}

func keyA() trace.Vec {
	var v trace.Vec
	v[0], v[1], v[2], v[3] = 100, 40, 10, 1000
	return v
}

func keyB() trace.Vec {
	var v trace.Vec
	v[0], v[1], v[2], v[3] = 160, 70, 25, 1400
	return v
}

func echoVec() trace.Vec {
	var v trace.Vec
	v[0], v[1], v[2], v[3] = 6, 2, 1, 90
	return v
}

func ms(x int64) sim.Time { return sim.Time(x) * sim.Millisecond }

func newTestEngine() *Engine {
	return NewEngine(tinyModel(), 8*sim.Millisecond, OnlineOptions{})
}

func TestEngineInfersExactKeys(t *testing.T) {
	e := newTestEngine()
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(400), V: keyB()})
	if e.Text() != "ab" {
		t.Fatalf("text = %q", e.Text())
	}
}

func TestEngineDedupWithinTi(t *testing.T) {
	e := newTestEngine()
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(116), V: keyA()}) // popup animation replay
	e.Process(trace.Delta{At: ms(400), V: keyA()}) // genuine second press
	if e.Text() != "aa" {
		t.Fatalf("text = %q, want dedup of the 16ms replay", e.Text())
	}
	if e.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", e.Stats().Duplicates)
	}
}

func TestEngineDedupDisabled(t *testing.T) {
	e := NewEngine(tinyModel(), 8*sim.Millisecond, OnlineOptions{DisableDedup: true})
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(116), V: keyA()})
	if e.Text() != "aa" {
		t.Fatalf("text = %q, want duplication to leak with dedup off", e.Text())
	}
}

func TestEngineSplitCombining(t *testing.T) {
	e := newTestEngine()
	half := keyA().Scale(0.5)
	e.Process(trace.Delta{At: ms(100), V: half})
	e.Process(trace.Delta{At: ms(108), V: half})
	if e.Text() != "a" {
		t.Fatalf("split not recombined: %q", e.Text())
	}
	if e.Stats().Splits != 1 {
		t.Fatalf("splits = %d", e.Stats().Splits)
	}
	// The inferred timestamp is the first fragment's (§5.1).
	if e.Keys()[0].At != ms(100) {
		t.Fatalf("split key at %v, want first fragment time", e.Keys()[0].At)
	}
}

func TestEngineSplitCombineDisabled(t *testing.T) {
	e := NewEngine(tinyModel(), 8*sim.Millisecond, OnlineOptions{DisableSplitCombine: true})
	half := keyA().Scale(0.5)
	e.Process(trace.Delta{At: ms(100), V: half})
	e.Process(trace.Delta{At: ms(108), V: half})
	if e.Text() != "" {
		t.Fatalf("split combined despite ablation: %q", e.Text())
	}
}

func TestEngineSplitWindowBounds(t *testing.T) {
	e := newTestEngine()
	half := keyA().Scale(0.5)
	e.Process(trace.Delta{At: ms(100), V: half})
	e.Process(trace.Delta{At: ms(200), V: half}) // 100ms apart: not a split
	if e.Text() != "" {
		t.Fatalf("distant fragments combined: %q", e.Text())
	}
}

func TestEngineThreeWaySplit(t *testing.T) {
	e := newTestEngine()
	third := keyA().Scale(1.0 / 4)
	rest := keyA().Sub(third).Sub(third)
	e.Process(trace.Delta{At: ms(100), V: third})
	e.Process(trace.Delta{At: ms(108), V: third})
	e.Process(trace.Delta{At: ms(116), V: rest})
	if e.Text() != "a" {
		t.Fatalf("3-way split not recombined: %q (stats %+v)", e.Text(), e.Stats())
	}
}

func TestEngineNoiseRejected(t *testing.T) {
	e := newTestEngine()
	var hide trace.Vec
	hide[0], hide[1], hide[2], hide[3] = 90, 35, 8, 900
	e.Process(trace.Delta{At: ms(100), V: hide})
	e.Process(trace.Delta{At: ms(600), V: hide})
	if e.Text() != "" {
		t.Fatalf("noise inferred as keys: %q", e.Text())
	}
	if e.Stats().Noise != 2 {
		t.Fatalf("noise count = %d", e.Stats().Noise)
	}
}

func TestEngineMergedKeyPlusNoiseDenoised(t *testing.T) {
	e := newTestEngine()
	var blink trace.Vec
	blink[0], blink[1], blink[2], blink[3] = 2, 1, 0, 3
	merged := keyA().Add(blink)
	e.Process(trace.Delta{At: ms(100), V: merged})
	if e.Text() != "a" {
		t.Fatalf("merged key+blink not recovered: %q", e.Text())
	}
}

func TestEngineCorrectionOnLoneEcho(t *testing.T) {
	e := newTestEngine()
	// Type 'a': popup, then its echo (prims 6).
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(200), V: echoVec()})
	// Type 'b': popup, echo with prims 8.
	var echo2 trace.Vec
	echo2[0], echo2[1], echo2[2], echo2[3] = 8, 3, 1, 95
	e.Process(trace.Delta{At: ms(600), V: keyB()})
	e.Process(trace.Delta{At: ms(700), V: echo2})
	// Backspace: no popup, lone echo with prims back to 6 (-2 step).
	e.Process(trace.Delta{At: ms(1500), V: echoVec()})
	if e.Text() != "a" {
		t.Fatalf("correction not applied: %q (stats %+v)", e.Text(), e.Stats())
	}
	if e.Stats().Corrections != 1 {
		t.Fatalf("corrections = %d", e.Stats().Corrections)
	}
}

func TestEngineCorrectionDisabled(t *testing.T) {
	e := NewEngine(tinyModel(), 8*sim.Millisecond, OnlineOptions{DisableCorrections: true})
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(200), V: echoVec()})
	var echo2 trace.Vec
	echo2[0], echo2[1], echo2[2], echo2[3] = 8, 3, 1, 95
	e.Process(trace.Delta{At: ms(600), V: keyB()})
	e.Process(trace.Delta{At: ms(700), V: echo2})
	e.Process(trace.Delta{At: ms(1500), V: echoVec()})
	if e.Text() != "ab" {
		t.Fatalf("correction applied despite ablation: %q", e.Text())
	}
}

func burstVec() trace.Vec {
	var v trace.Vec
	// Big (full-screen) and unclassifiable.
	v[0], v[1], v[2], v[3] = 777, 321, 99, 4_000_000
	return v
}

func TestEngineBurstSuppression(t *testing.T) {
	e := newTestEngine()
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	// Away burst: 6 big unknown deltas 10ms apart.
	for i := 0; i < 6; i++ {
		e.Process(trace.Delta{At: ms(500 + int64(i)*10), V: burstVec()})
	}
	if !e.Suppressed() {
		t.Fatal("burst did not suppress")
	}
	// Foreign-app key-like delta must NOT be inferred... it classifies as
	// a key, which is also the resume signal; a real foreign app does not
	// produce target-app signatures, so use an unknown delta first.
	var foreign trace.Vec
	foreign[0], foreign[1], foreign[2], foreign[3] = 555, 200, 60, 2_000_000
	e.Process(trace.Delta{At: ms(1000), V: foreign})
	if !e.Suppressed() {
		t.Fatal("foreign unknown delta ended suppression")
	}
	// Return burst, then a target-app signature (blink) resumes.
	for i := 0; i < 6; i++ {
		e.Process(trace.Delta{At: ms(3000 + int64(i)*10), V: burstVec()})
	}
	var blink trace.Vec
	blink[0], blink[1], blink[2], blink[3] = 2, 1, 0, 3
	e.Process(trace.Delta{At: ms(3500), V: blink})
	if e.Suppressed() {
		t.Fatal("target-app signature did not resume")
	}
	e.Process(trace.Delta{At: ms(4000), V: keyB()})
	if e.Text() != "ab" {
		t.Fatalf("text = %q", e.Text())
	}
	if e.Stats().Switches < 2 {
		t.Fatalf("switches = %d", e.Stats().Switches)
	}
}

func TestEngineBurstRetractsRecentKeys(t *testing.T) {
	e := newTestEngine()
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	// A burst frame accidentally classified as a key right before the
	// burst is recognized would poison the credential; keys inferred
	// within the detection window are retracted.
	e.Process(trace.Delta{At: ms(500), V: keyB()}) // real key (old enough)
	for i := 0; i < 6; i++ {
		e.Process(trace.Delta{At: ms(700 + int64(i)*10), V: burstVec()})
	}
	if !e.Suppressed() {
		t.Fatal("not suppressed")
	}
	if e.Text() != "ab" {
		t.Fatalf("keys outside the burst window retracted: %q", e.Text())
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	e := newTestEngine()
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(200), V: echoVec()})
	var junk trace.Vec
	junk[0] = 43
	e.Process(trace.Delta{At: ms(900), V: junk})
	st := e.Stats()
	if st.Deltas != 3 || st.Keys != 1 || st.Noise != 1 || st.Unknown != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDerivedWindows pins every fixed parameter of the online phase and
// the windows it derives from the polling interval: the engine's, the
// fusion rules' and the launch monitor's. A zero interval means
// DefaultInterval.
func TestDerivedWindows(t *testing.T) {
	if ti := (OnlineOptions{}).withDefaults().DedupWindow; dedupWindow != 75*sim.Millisecond || ti != dedupWindow {
		t.Errorf("Ti = %v, default DedupWindow = %v, want 75ms", dedupWindow, ti)
	}
	if burstGap != 50*sim.Millisecond || burstLen != 5 {
		t.Errorf("app-switch burst = %v x %d, want 50ms x 5", burstGap, burstLen)
	}
	if relaxCth != 2 || familyEps != 1e-6 || launchTolerance != 0.01 {
		t.Errorf("relaxed Cth x%v, family eps %v, launch tolerance %v; want x2, 1e-6, 0.01",
			relaxCth, familyEps, launchTolerance)
	}
	for _, c := range []struct {
		interval sim.Time
		want     windows
	}{
		{8 * sim.Millisecond, windows{split: ms(21), gapTolerance: ms(13), resync: ms(32), evidence: ms(41), idle: ms(32), launch: ms(17)}},
		{4 * sim.Millisecond, windows{split: ms(11), gapTolerance: ms(7), resync: ms(16), evidence: ms(21), idle: ms(16), launch: ms(9)}},
		{0, windows{split: ms(21), gapTolerance: ms(13), resync: ms(32), evidence: ms(41), idle: ms(32), launch: ms(17)}},
	} {
		if got := windowsFor(c.interval); got != c.want {
			t.Errorf("windowsFor(%v) = %+v, want %+v", c.interval, got, c.want)
		}
		if got := NewEngine(tinyModel(), c.interval, OnlineOptions{}).win; got != c.want {
			t.Errorf("NewEngine at %v uses %+v, want %+v", c.interval, got, c.want)
		}
	}
}

// Property: the engine never reports two key presses closer than the Ti
// duplication window, no matter what delta stream it sees.
func TestEngineTiInvariantProperty(t *testing.T) {
	m := tinyModel()
	rng := sim.NewRand(991)
	for trial := 0; trial < 200; trial++ {
		e := NewEngine(m, 8*sim.Millisecond, OnlineOptions{})
		at := sim.Time(0)
		for i := 0; i < 40; i++ {
			at += sim.Time(rng.Intn(120)) * sim.Millisecond
			var v trace.Vec
			switch rng.Intn(4) {
			case 0:
				v = keyA()
			case 1:
				v = keyB()
			case 2:
				v = keyA().Scale(0.5)
			default:
				v = echoVec()
			}
			// Random perturbation.
			for j := range v {
				v[j] += float64(rng.Intn(7)) - 3
			}
			e.Process(trace.Delta{At: at, V: v})
		}
		keys := e.Keys()
		for i := 1; i < len(keys); i++ {
			if gap := keys[i].At - keys[i-1].At; gap < 75*sim.Millisecond {
				t.Fatalf("trial %d: keys %d/%d only %v apart", trial, i-1, i, gap)
			}
		}
	}
}

// Property: inferred keys always carry usable margins for guessing.
func TestEngineMarginsPopulated(t *testing.T) {
	e := newTestEngine()
	e.Process(trace.Delta{At: ms(100), V: keyA()})
	e.Process(trace.Delta{At: ms(400), V: keyB()})
	for _, k := range e.Keys() {
		if k.Alt == 0 || k.Alt == k.R {
			t.Fatalf("key %q has no alternative", k.R)
		}
		if k.Margin < 0 {
			t.Fatalf("key %q has negative margin %v", k.R, k.Margin)
		}
	}
}
