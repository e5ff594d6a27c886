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

const golden = "../../testdata/telemetry_golden.jsonl"

// capture is the counter trace attackd writes with -faults severe
// -fault-seed 4 and every other flag at its default, pinned by
// cmd/attackd's TestRunWritesChangePointTrace, where attackd eavesdrops
// "hunter2pass" from it. Its tick at 8 ms was dropped, so the spacing of
// its first rows is not its polling interval.
const capture = "../../testdata/attackd_severe_seed4.csv"

// TestRunReplaysAtRecordedInterval replays attackd's faulted capture
// with the model attackd trains on the fly: traceview reads the 8 ms
// interval from the file, not from row spacing (which would widen every
// Algorithm 1 window twofold), and recovers attackd's credential.
func TestRunReplaysAtRecordedInterval(t *testing.T) {
	// attackd's training configuration: its victim without render
	// jitter, two presses per key.
	cfg := victim.Config{Device: android.OnePlus8Pro, Keyboard: keyboard.GBoard, App: android.Chase, Seed: 42}
	m, err := attack.CollectContext(context.Background(), cfg, attack.CollectOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
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
	var stdout bytes.Buffer
	if err := run([]string{"-trace", capture, "-model", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"interval 8ms\n", "changes: 44\n", `recoverable credential: "hunter2pass"`} {
		if !strings.Contains(out, want) {
			t.Errorf("traceview output lacks %q:\n%s", want, out)
		}
	}
}

// TestRunConvertsTelemetry pins -telemetry-chrome: converting the golden
// stream writes exactly what obs.WriteChromeTrace makes of its events,
// and an empty or malformed stream is an error.
func TestRunConvertsTelemetry(t *testing.T) {
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := obs.WriteChromeTrace(&want, evs); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	if err := run([]string{"-telemetry", golden, "-telemetry-chrome", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Chrome trace (%d bytes) differs from obs.WriteChromeTrace of the golden (%d bytes)", len(got), want.Len())
	}

	for name, stream := range map[string]string{"empty": "", "malformed": "{\"seq\":0,\n"} {
		in := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(in, []byte(stream), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-telemetry", in, "-telemetry-chrome", out}, io.Discard); err == nil {
			t.Errorf("%s telemetry stream converted without error", name)
		}
	}
}
