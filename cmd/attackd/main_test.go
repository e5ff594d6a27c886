package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/victim"
)

// TestRunWritesTelemetry runs one seeded attack with -telemetry: the
// eavesdrop must match the typed text, and the stream written must be
// non-empty JSONL.
func TestRunWritesTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-seed", "7", "-text", "hunter2", "-telemetry", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "exact match  : true") {
		t.Fatalf("attackd output lacks an exact match:\n%s", stdout.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("telemetry does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("telemetry stream is empty")
	}
}

// TestRunPreloadsCollectedModel covers the paper's offline-to-online
// hand-off: a model trained and written the way collect does, on
// attackd's own training configuration, is preloaded with -model and
// eavesdrops exactly. A model trained for another channel or device is
// refused with an error naming both keys, instead of classifying this
// victim's KGSL deltas against the wrong centroids.
func TestRunPreloadsCollectedModel(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, dev android.DeviceModel, ch string) string {
		t.Helper()
		cfg := victim.Config{Device: dev, Keyboard: keyboard.GBoard, App: android.Chase, Seed: 7}
		m, err := attack.Collect(cfg, attack.CollectOptions{Repeats: 2, Channel: ch})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var stdout bytes.Buffer
	path := write("kgsl", android.OnePlus8Pro, "")
	if err := run(context.Background(), []string{"-model", path, "-seed", "7", "-text", "hunter2"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "exact match  : true") {
		t.Fatalf("attackd -model output lacks an exact match:\n%s", stdout.String())
	}

	for _, c := range []struct {
		name    string
		dev     android.DeviceModel
		ch      string
		trained string
	}{
		{"proccount", android.OnePlus8Pro, "proccount", ":proccount"},
		{"other-device", android.OnePlus9, "", "OnePlus 9/"},
	} {
		path := write(c.name, c.dev, c.ch)
		err := run(context.Background(), []string{"-model", path, "-seed", "7", "-text", "hunter2"}, io.Discard)
		if err == nil {
			t.Errorf("%s: attackd eavesdropped with a model trained for something else", c.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.trained) || !strings.Contains(msg, "OnePlus 8 Pro/") {
			t.Errorf("%s: error does not name both model keys: %v", c.name, err)
		}
	}
}
