package gpuleak_test

// The channel-plane refactor's contract: routing the KGSL pipeline
// through the generic Channel interface changes NOTHING. The goldens in
// testdata/channel_golden were captured from the pre-refactor code; the
// trained model and the eavesdropping result must match them byte for
// byte, at any worker count.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"gpuleak"
	"gpuleak/internal/attack"
)

func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/channel_golden/" + name)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	return b
}

func TestKGSLModelByteIdenticalToPreChannelGolden(t *testing.T) {
	want := goldenBytes(t, "kgsl_model.json")
	for _, workers := range []int{1, 8} {
		cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 7}
		m, err := gpuleak.TrainContext(context.Background(), cfg, attack.CollectOptions{Repeats: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Key.Channel != "" {
			t.Fatalf("workers=%d: KGSL model key carries channel tag %q; default channel must stay canonically empty", workers, m.Key.Channel)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d: model JSON differs from pre-refactor golden (%d vs %d bytes)", workers, buf.Len(), len(want))
		}
	}
}

func TestKGSLEavesdropByteIdenticalToPreChannelGolden(t *testing.T) {
	want := goldenBytes(t, "kgsl_result.json")
	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 7}
	m, err := gpuleak.TrainContext(context.Background(), cfg, attack.CollectOptions{Repeats: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess := gpuleak.NewVictim(cfg)
	sess.Run(gpuleak.TypeText("hunter2", 1))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpuleak.NewAttack(m).EavesdropContext(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("eavesdrop result differs from pre-refactor golden:\ngot:  %s\nwant: %s", got, want)
	}
	if res.Text != "hunter2" {
		t.Errorf("Text = %q, want %q", res.Text, "hunter2")
	}
}
