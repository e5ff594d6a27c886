package attack

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// Offline collection is expensive enough to share across tests.
var (
	modelOnce sync.Once
	oneModel  *Model
	modelErr  error
)

func baseVictimConfig() victim.Config {
	return victim.Config{Device: android.OnePlus8Pro, Seed: 99}
}

func sharedModel(t testing.TB) *Model {
	t.Helper()
	modelOnce.Do(func() {
		oneModel, modelErr = CollectContext(context.Background(), baseVictimConfig(), CollectOptions{Repeats: 2})
	})
	if modelErr != nil {
		t.Fatalf("offline collection failed: %v", modelErr)
	}
	return oneModel
}

func TestOfflineCollectBuildsFullModel(t *testing.T) {
	m := sharedModel(t)
	if len(m.Keys) < 60 {
		t.Fatalf("model knows %d keys, want all typable keys", len(m.Keys))
	}
	if len(m.Noise) == 0 {
		t.Fatal("no noise centroids learned")
	}
	if m.Cth <= 0 {
		t.Fatalf("Cth = %v", m.Cth)
	}
	if m.Launch.IsZero() {
		t.Fatal("no launch fingerprint")
	}
	if m.Key.Device != "OnePlus 8 Pro" || m.Key.Keyboard != "gboard" {
		t.Fatalf("model key = %v", m.Key)
	}
}

func TestModelSeparatesKeys(t *testing.T) {
	m := sharedModel(t)
	if d := m.MinInterKeyDistance(); d <= 0 {
		t.Fatalf("degenerate key centroids: min inter distance %v", d)
	}
	// Every centroid classifies back to its own key.
	wrong := 0
	for s, c := range m.Keys {
		v := m.Classify(c)
		if !v.IsKey || v.R != firstRune(s) {
			wrong++
			t.Logf("centroid %q classifies to %q (isKey=%v)", s, v.R, v.IsKey)
		}
	}
	if wrong > 0 {
		t.Fatalf("%d centroids misclassify", wrong)
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := sharedModel(t)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	// §7.6: one model averages ~3.59 kB. Ours includes noise centroids;
	// accept the same order of magnitude.
	if size < 1000 || size > 80_000 {
		t.Fatalf("model JSON size = %d bytes", size)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Keys) != len(m.Keys) || back.Cth != m.Cth {
		t.Fatal("round trip lost data")
	}
	if _, err := ReadModel(bytes.NewReader([]byte("{}"))); err == nil {
		t.Fatal("empty model accepted")
	}
}

func eavesdropText(t *testing.T, text string, cfgMut func(*victim.Config), seed int64) (*Result, string) {
	t.Helper()
	cfg := baseVictimConfig()
	cfg.Seed = seed
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	sess := victim.New(cfg)
	r := sim.NewRand(seed * 7)
	script := input.Typing(text, input.Volunteers[0], input.SpeedAny, r, 700*sim.Millisecond)
	sess.Run(script)

	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	atk := New(sharedModel(t))
	res, err := atk.EavesdropContext(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	return res, sess.TypedText()
}

func TestEndToEndEavesdropping(t *testing.T) {
	res, truth := eavesdropText(t, "mysecret99", nil, 1234)
	if res.Text != truth {
		t.Fatalf("eavesdropped %q, truth %q (stats %+v)", res.Text, truth, res.Stats)
	}
}

func TestEndToEndManyTexts(t *testing.T) {
	texts := []string{"password1", "qwertzuiop", "letmein12345", "a1b2c3d4"}
	good := 0
	for i, txt := range texts {
		res, truth := eavesdropText(t, txt, nil, int64(100+i))
		if res.Text == truth {
			good++
		} else {
			t.Logf("text %d: got %q want %q", i, res.Text, truth)
		}
	}
	if good < 3 {
		t.Fatalf("only %d/%d texts recovered", good, len(texts))
	}
}

func TestDuplicationSuppressed(t *testing.T) {
	// GBoard duplicates popup deltas ~18% of the time; over 40 presses we
	// expect several, all suppressed rather than duplicated in output.
	res, truth := eavesdropText(t, "abcdefghijklmnopqrstuvwxyzabcdefghijklmn", nil, 777)
	if len(res.Text) > len(truth) {
		t.Fatalf("inferred %d chars for %d presses — duplication leaked", len(res.Text), len(truth))
	}
}

func TestBackspaceCorrectionTracked(t *testing.T) {
	cfg := baseVictimConfig()
	cfg.Seed = 31
	sess := victim.New(cfg)
	script := input.Script{Events: []input.Event{
		{Kind: input.EvPress, R: 'a', At: 700 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'b', At: 1100 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'x', At: 1500 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvBackspace, At: 2000 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'c', At: 2500 * sim.Millisecond, Dur: 90 * sim.Millisecond},
	}}
	sess.Run(script)
	f, _ := sess.Open()
	atk := New(sharedModel(t))
	res, err := atk.EavesdropContext(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != "abc" {
		t.Fatalf("with correction: got %q want %q (stats %+v)", res.Text, "abc", res.Stats)
	}
	if res.Stats.Corrections != 1 {
		t.Fatalf("corrections = %d, want 1", res.Stats.Corrections)
	}
}

func TestAppSwitchSuppressed(t *testing.T) {
	cfg := baseVictimConfig()
	cfg.Seed = 57
	sess := victim.New(cfg)
	script := input.Script{Events: []input.Event{
		{Kind: input.EvPress, R: 'a', At: 700 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'b', At: 1200 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvSwitchAway, At: 2 * sim.Second},
		{Kind: input.EvSwitchBack, At: 6 * sim.Second},
		{Kind: input.EvPress, R: 'c', At: 7 * sim.Second, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'd', At: 7500 * sim.Millisecond, Dur: 90 * sim.Millisecond},
	}}
	sess.Run(script)
	f, _ := sess.Open()
	atk := New(sharedModel(t))
	res, err := atk.EavesdropContext(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != "abcd" {
		t.Fatalf("across app switch: got %q want %q (stats %+v)", res.Text, "abcd", res.Stats)
	}
	if res.Stats.Switches == 0 {
		t.Fatal("switch burst not detected")
	}
}

func TestRecognizePicksRightModel(t *testing.T) {
	m8 := sharedModel(t)
	cfg9 := victim.Config{Device: android.OnePlus9, Seed: 5}
	m9, err := CollectContext(context.Background(), cfg9, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	atk := New(m8, m9)

	sess := victim.New(victim.Config{Device: android.OnePlus9, Seed: 61})
	r := sim.NewRand(6)
	sess.Run(input.Typing("hello", input.Volunteers[0], input.SpeedAny, r, 700*sim.Millisecond))
	f, _ := sess.Open()
	res, err := atk.EavesdropContext(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Device != "OnePlus 9" {
		t.Fatalf("recognized %v, want OnePlus 9", res.Model)
	}
	if res.Text != "hello" {
		t.Fatalf("cross-device text = %q", res.Text)
	}
}

func TestSamplerFailsClosedUnderRBAC(t *testing.T) {
	cfg := baseVictimConfig()
	sess := victim.New(cfg)
	r := sim.NewRand(1)
	sess.Run(input.Typing("abc", input.Volunteers[0], input.SpeedAny, r, 700*sim.Millisecond))
	sess.Device.OpenDenied = true
	if _, err := sess.Open(); err == nil {
		t.Fatal("open should fail under deny policy")
	}
}

func TestEavesdropNoModels(t *testing.T) {
	atk := &Attack{}
	sess := victim.New(baseVictimConfig())
	sess.Run(input.Script{})
	f, _ := sess.Open()
	if _, err := atk.EavesdropContext(context.Background(), f, 0, sess.End); err == nil {
		t.Fatal("no-model attack should error")
	}
}
