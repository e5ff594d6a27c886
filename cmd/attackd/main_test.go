package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

var update = flag.Bool("update", false, "rewrite the committed -trace capture")

// capture is the counter trace attackd writes with -faults severe
// -fault-seed 4 and every other flag at its default. cmd/traceview
// replays it, and the trace package's fuzz test starts from it.
const capture = "../../testdata/attackd_severe_seed4.csv"

// TestRunWritesChangePointTrace pins attackd -trace on a faulted run:
// the file is the committed capture byte for byte, and it holds the
// polling interval, every successful read in its count and exactly the
// change points the engine ran on. Regenerate the capture with
//
//	go test ./cmd/attackd -run TestRunWritesChangePointTrace -update
func TestRunWritesChangePointTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-faults", "severe", "-fault-seed", "4", "-trace", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, `eavesdropped : "hunter2pass"`) {
		t.Fatalf("attackd output lacks the credential:\n%s", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(capture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", capture, len(got))
		return
	}
	want, err := os.ReadFile(capture)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("attackd -trace wrote %d bytes that differ from the committed %d-byte capture", len(got), len(want))
	}
	tr, err := trace.ReadCSV(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	rec := regexp.MustCompile(`recovery     : \{Ticks:(\d+) .*DroppedTicks:(\d+) `).FindStringSubmatch(out)
	if rec == nil {
		t.Fatalf("attackd output lacks the recovery line:\n%s", out)
	}
	ticks, _ := strconv.Atoi(rec[1])
	dropped, _ := strconv.Atoi(rec[2])
	if tr.Interval != attack.DefaultInterval || tr.Reads != ticks-dropped ||
		!strings.Contains(out, fmt.Sprintf("{Deltas:%d ", len(tr.Deltas()))) {
		t.Fatalf("trace holds interval %v, %d reads and %d changes; want %v, %d-%d reads and the engine's delta count",
			tr.Interval, tr.Reads, len(tr.Deltas()), attack.DefaultInterval, ticks, dropped)
	}
}

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
		m, err := attack.CollectContext(context.Background(), cfg, attack.CollectOptions{Repeats: 2, Channel: ch})
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

// TestRunMonitors runs the Figure-4 monitoring service: the victim uses
// another app for 6 s, and the attack waits at low duty for the target
// launch before it eavesdrops, with and without a fault plane. Under a
// fault plane it reports the recovery of both phases.
func TestRunMonitors(t *testing.T) {
	for _, extra := range [][]string{nil, {"-faults", "moderate"}} {
		var stdout bytes.Buffer
		args := append([]string{"-monitor", "-seed", "7", "-text", "hunter2"}, extra...)
		if err := run(context.Background(), args, &stdout); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		out := stdout.String()
		if !strings.Contains(out, "exact match  : true") {
			t.Errorf("%v: output lacks an exact match:\n%s", args, out)
		}
		for _, line := range []string{"idle recovery:", "recovery     :"} {
			if got := strings.Contains(out, line); got != (extra != nil) {
				t.Errorf("%v: %q printed = %v:\n%s", args, line, got, out)
			}
		}
	}
}

// TestRunRefusesMonitorTrace pins that -monitor -trace fails before it
// does any work, rather than exiting 0 without writing the file.
func TestRunRefusesMonitorTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	err := run(context.Background(), []string{"-monitor", "-trace", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-monitor") {
		t.Fatalf("attackd -monitor -trace: %v, want a refusal naming -monitor", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("attackd -monitor -trace left %s behind (%v)", path, err)
	}
}
