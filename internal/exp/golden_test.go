package exp

// The arms and chaos reports committed at the repo root are goldens: the
// tests rerun their canonical configurations and byte-compare the
// encoded report against the file. Regenerate with
//
//	go test ./internal/exp -run 'TestArmsTournamentBitIdenticalAcrossWorkers|TestChaosReportDeterministicAcrossWorkers' -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed arms-report.json and chaos-report.json")

// encodeReport renders a report exactly as it is committed: indented
// JSON with a trailing newline.
func encodeReport(t *testing.T, rep any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGoldenReport compares got against the named file at the repo
// root, reporting the first differing line; with -update it rewrites the
// file instead.
func checkGoldenReport(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("..", "..", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("report diverges from %s at line %d (regenerate with -update if intended):\n got: %s\nwant: %s",
				name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("report has %d lines, %s has %d (regenerate with -update if intended)", len(gl), name, len(wl))
	}
}
