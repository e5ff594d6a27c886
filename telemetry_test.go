package gpuleak

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden telemetry fixtures")

// goldenRun is a fixed-seed attackd-equivalent run with telemetry on the
// online phase: train a model (untraced — training cost is covered by
// TestTelemetryTrainWorkersIdentical), eavesdrop a short credential, and
// export the merged JSONL stream.
func goldenRun(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 7}
	m, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}

	sess := NewVictim(cfg)
	sess.Run(TypeText("ab1", 7))
	tracer := NewTracer()
	sess.Device.SetMetrics(tracer.Metrics())
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	atk := NewAttack(m)
	atk.Obs = tracer
	res, err := atk.EavesdropContext(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != sess.TypedText() {
		t.Fatalf("attack missed: %q vs %q", res.Text, sess.TypedText())
	}

	var buf bytes.Buffer
	if err := WriteTelemetry(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTelemetryGolden pins the exact event stream of a fixed-seed run
// against a checked-in golden file: any unintended change to event names,
// fields, ordering or serialization shows up as a diff. Regenerate with
//
//	go test -run TestTelemetryGolden -update .
func TestTelemetryGolden(t *testing.T) {
	got := goldenRun(t, 1)
	path := filepath.Join("testdata", "telemetry_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("telemetry stream diverges from golden at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("telemetry stream length differs from golden: %d vs %d lines", len(gl), len(wl))
	}
}

// TestTelemetryWorkersIdentical pins the tentpole determinism guarantee
// end to end: the exported stream of a fixed-seed run is byte-identical
// at any worker count, even though telemetry was recorded from racing
// goroutines.
func TestTelemetryWorkersIdentical(t *testing.T) {
	serial := goldenRun(t, 1)
	if par := goldenRun(t, 8); !bytes.Equal(serial, par) {
		t.Fatalf("workers=8 telemetry differs from workers=1 (%d vs %d bytes)", len(par), len(serial))
	}
}

// TestTelemetryTrainWorkersIdentical covers the offline phase: per-task
// child tracers are pre-created in index order, so the training stream is
// also byte-identical at any worker count.
func TestTelemetryTrainWorkersIdentical(t *testing.T) {
	stream := func(workers int) []byte {
		tracer := NewTracer()
		cfg := VictimConfig{Device: OnePlus8Pro, Seed: 99}
		if _, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1, Workers: workers, Obs: tracer}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteTelemetry(&buf, tracer); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := stream(1)
	if serial == nil || !bytes.Contains(serial, []byte("offline.task")) {
		t.Fatal("training stream empty or missing offline.task spans")
	}
	if par := stream(8); !bytes.Equal(serial, par) {
		t.Fatalf("workers=8 training telemetry differs from workers=1 (%d vs %d bytes)", len(par), len(serial))
	}
}
