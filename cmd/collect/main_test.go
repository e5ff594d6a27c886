package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/victim"
)

// TestRunWritesTrainedModel pins the offline phase's artifact: the file
// collect writes is byte-identical to attack.CollectContext plus
// Model.WriteJSON for the same configuration, so attackd -model preloads
// exactly the classifier the library trains.
func TestRunWritesTrainedModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := run(context.Background(), []string{"-repeats", "2", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := victim.Config{Device: android.OnePlus8Pro, Keyboard: keyboard.GBoard, App: android.Chase, Seed: 1}
	m, err := attack.CollectContext(context.Background(), cfg, attack.CollectOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := m.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("collect wrote %d bytes, attack.CollectContext+WriteJSON gives %d; the files differ", len(got), want.Len())
	}
}
