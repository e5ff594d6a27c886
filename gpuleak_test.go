package gpuleak

import (
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 7}
	model, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(TypeText("hunter2", 11))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAttack(model).Eavesdrop(f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != "hunter2" {
		t.Fatalf("eavesdropped %q", res.Text)
	}
}

func TestFacadeRBACBlocksAttack(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 8}
	model, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(TypeText("secret", 12))
	sess.Device.SetPolicy(NewRBACPolicy())
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttack(model).Eavesdrop(f, 0, sess.End); err == nil {
		t.Fatal("attack succeeded despite RBAC policy")
	}
}

func TestFacadeObfuscatorDegradesAttack(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 9}
	model, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(TypeText("correcthorse", 13))
	sess.Device.SetObfuscator(NewObfuscator(1.0, 99))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAttack(model).Eavesdrop(f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "correcthorse" {
		t.Fatal("heavy obfuscation did not degrade the attack")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(Experiments()) < 25 {
		t.Fatalf("only %d experiments exposed", len(Experiments()))
	}
	if _, err := RunExperiment("nope", true, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	r, err := RunExperiment("fig5", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig5" {
		t.Fatalf("wrong experiment ran: %s", r.ID)
	}
}

func TestFacadePracticalSession(t *testing.T) {
	s := PracticalSession("abcdef", Volunteers[2], 3)
	if len(s.Events) < 6 {
		t.Fatalf("practical session too short: %d events", len(s.Events))
	}
	if s.ExpectedText() != "abcdef" {
		t.Fatalf("ExpectedText = %q", s.ExpectedText())
	}
}

func TestFacadeMonitorPipeline(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 21, PreLaunch: 3_000_000}
	model, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(PracticalSessionAt("watchme1", Volunteers[1], 33, cfg.PreLaunch+800_000))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAttack(model).MonitorAndEavesdrop(f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("launch not detected through the facade")
	}
	if res.Result.Text != sess.TypedText() {
		t.Fatalf("monitored recovery %q vs %q", res.Result.Text, sess.TypedText())
	}
}

func TestFacadeOfflineSegmentation(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 22}
	model, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(TypeText("offline99", 14))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	atk := NewAttack(model)
	s, err := NewSamplerOn(f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect(0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	res, err := atk.EavesdropTraceOffline(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != sess.TypedText() {
		t.Fatalf("offline segmentation got %q, want %q", res.Text, sess.TypedText())
	}
}

func TestFacadeSELinuxPolicy(t *testing.T) {
	if _, err := NewSELinuxPolicy("garbage rule"); err == nil {
		t.Fatal("malformed policy accepted")
	}
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 23}
	model, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(TypeText("patched", 15))
	sess.Device.SetPolicy(GooglePatchPolicy())
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttack(model).Eavesdrop(f, 0, sess.End); err == nil {
		t.Fatal("attack survived the Google patch policy")
	}
}
