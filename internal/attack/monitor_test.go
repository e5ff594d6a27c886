package attack

import (
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

func TestMonitorDetectsLaunchAndEavesdrops(t *testing.T) {
	cfg := baseVictimConfig()
	cfg.Seed = 404
	cfg.PreLaunch = 5 * sim.Second
	m := sharedModel(t)

	sess := victim.New(cfg)
	script := input.Typing("monitored1", input.Volunteers[0], input.SpeedAny,
		sim.NewRand(17), cfg.PreLaunch+800*sim.Millisecond)
	sess.Run(script)

	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	atk := New(m)
	res, err := atk.MonitorAndEavesdrop(f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("target app launch not detected")
	}
	// Detection must be at the real launch, not during the foreign phase.
	if res.LaunchDetectedAt < sess.LaunchAt || res.LaunchDetectedAt > sess.LaunchAt+200*sim.Millisecond {
		t.Fatalf("detected at %v, launch at %v", res.LaunchDetectedAt, sess.LaunchAt)
	}
	if res.Result == nil || res.Result.Text != sess.TypedText() {
		t.Fatalf("monitored eavesdropping got %q, want %q", res.Result.Text, sess.TypedText())
	}
	// Low-duty monitoring: far fewer reads than full-rate polling of the
	// same span would need.
	fullRate := int((sess.LaunchAt - 0) / DefaultInterval)
	if res.IdleReads >= fullRate {
		t.Fatalf("monitor polled %d times, full rate would be %d", res.IdleReads, fullRate)
	}
}

func TestMonitorDoesNotFireOnForeignUse(t *testing.T) {
	// A session that never launches the target app: only foreign frames.
	cfg := baseVictimConfig()
	cfg.Seed = 405
	cfg.App = android.Amex // victim uses a NON-target app
	m := sharedModel(t)    // models trained for Chase

	sess := victim.New(cfg)
	sess.Run(input.Script{})
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	atk := New(m)
	res, err := atk.MonitorAndEavesdrop(f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("monitor fired on a non-target app at %v", res.LaunchDetectedAt)
	}
}
