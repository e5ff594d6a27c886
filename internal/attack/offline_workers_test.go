package attack

import (
	"bytes"
	"context"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// modelBytes serializes a model; encoding/json writes map keys sorted, so
// byte equality is a faithful model-equality check (Model carries no
// exported nondeterministic state).
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectBitIdenticalAcrossWorkers is the tentpole guarantee: the
// offline phase derives every task's randomness from (seed, task index),
// so the trained model is byte-for-byte identical at any worker count.
func TestCollectBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := victim.Config{Device: android.OnePlus8Pro, Seed: 42, RenderJitter: 0.004}
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		m, err := CollectContext(context.Background(), cfg, CollectOptions{Repeats: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := modelBytes(t, m)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced a different model than workers=1 (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestCollectSeedSensitivity guards against the per-task seeding
// accidentally ignoring the base seed: different base seeds must yield
// different jittered observations.
func TestCollectSeedSensitivity(t *testing.T) {
	mk := func(seed int64) []byte {
		cfg := victim.Config{Device: android.OnePlus8Pro, Seed: seed, RenderJitter: 0.004}
		m, err := CollectContext(context.Background(), cfg, CollectOptions{Repeats: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return modelBytes(t, m)
	}
	if bytes.Equal(mk(1), mk(2)) {
		t.Fatal("models for different base seeds are identical; task seeding ignores the base seed")
	}
}

// TestCollectWarmMemoMatchesCold verifies that the process-wide
// frame-stats memo cannot change the trained model: rendering is pure, so
// hits and misses are indistinguishable. No other test of this package
// uses the configuration, so the first CollectContext renders every frame
// and the second reads every frame from the memo.
func TestCollectWarmMemoMatchesCold(t *testing.T) {
	cfg := victim.Config{Device: android.Pixel2, App: android.Schwab, Keyboard: keyboard.Grammarly, Seed: 7, RenderJitter: 0.004}
	cold, err := CollectContext(context.Background(), cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CollectContext(context.Background(), cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, cold), modelBytes(t, warm)) {
		t.Fatal("a warm frame-stats memo changed the trained model")
	}
}

// TestCollectIgnoresPreLaunch pins the controlled collection
// environment: a foreign-app prelude belongs to a victim's session, not
// to the attacker's own device, and ModelKeyForChannel does not tell a
// model trained on one apart, so collecting a configuration with a
// PreLaunch must train exactly the model of the same one without it.
func TestCollectIgnoresPreLaunch(t *testing.T) {
	cfg := victim.Config{Device: android.OnePlus8Pro, Seed: 42}
	want, err := CollectContext(context.Background(), cfg, CollectOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PreLaunch = 6 * sim.Second
	got, err := CollectContext(context.Background(), cfg, CollectOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, got), modelBytes(t, want)) {
		t.Fatalf("a 6 s prelude changed the collected model: %d noise signatures, want %d", len(got.Noise), len(want.Noise))
	}
}
