package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gpuleak/internal/obs"
)

const golden = "../../testdata/telemetry_golden.jsonl"

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
