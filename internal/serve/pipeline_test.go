package serve

// The request matrix every assembly of the probe stack must answer
// identically: one-shot /v1/eavesdrop over channel × fault × defense, plus
// one practical-typing row, each response byte-compared against
// testdata/pipeline_golden.jsonl. Regenerate with
//
//	go test -run TestEavesdropRequestMatrix -update ./internal/serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the goldens under testdata")

// matrixCase is one request of the matrix: a stable name and its body.
type matrixCase struct {
	Name string
	Body string
}

// requestMatrix enumerates the pinned requests. Fault profiles model the
// KGSL ioctl path, so "mild" appears only on KGSL-primary rows.
func requestMatrix() []matrixCase {
	channels := []struct {
		name, field string
		kgslPrimary bool
	}{
		{"kgsl", ``, true},
		{"proccount", `,"channel":"proccount"`, false},
		{"kgsl+proccount", `,"channels":["kgsl","proccount"]`, true},
	}
	faults := []struct{ name, field string }{
		{"none", ``},
		{"mild", `,"fault_profile":"mild"`},
	}
	defenses := []struct{ name, field string }{
		{"none", ``},
		{"quantize@0.25", `,"defense":"quantize","defense_strength":0.25`},
		{"ratelimit@0.5", `,"defense":"ratelimit","defense_strength":0.5`},
	}
	var cases []matrixCase
	for _, ch := range channels {
		for _, f := range faults {
			if f.field != "" && !ch.kgslPrimary {
				continue
			}
			for _, d := range defenses {
				cases = append(cases, matrixCase{
					Name: ch.name + "/" + f.name + "/" + d.name,
					Body: `{"text":"pa55word","seed":11` + ch.field + f.field + d.field + `}`,
				})
			}
		}
	}
	return append(cases, matrixCase{
		Name: "kgsl/none/none/practical",
		Body: `{"text":"hunter2","seed":3,"practical":true}`,
	})
}

// matrixLine is one golden record: the case, its status and the compact
// response body.
type matrixLine struct {
	Case   string          `json:"case"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// TestEavesdropRequestMatrix pins the served response of every request in
// the matrix byte for byte.
func TestEavesdropRequestMatrix(t *testing.T) {
	s := NewServer(Options{Shards: 2, TrainWorkers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var got bytes.Buffer
	for _, c := range requestMatrix() {
		resp := postJSON(t, ts.URL+"/v1/eavesdrop", c.Body)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		var body bytes.Buffer
		if err := json.Compact(&body, raw); err != nil {
			t.Fatalf("%s: compacting %s: %v", c.Name, raw, err)
		}
		line, err := json.Marshal(matrixLine{Case: c.Name, Status: resp.StatusCode, Body: body.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}

	path := filepath.Join("testdata", "pipeline_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("matrix response %d diverges from golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("matrix has %d lines, golden %d", len(gl), len(wl))
	}
}
