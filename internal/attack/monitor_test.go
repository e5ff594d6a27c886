package attack

import (
	"context"
	"errors"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// monitoredSession is a victim that uses a foreign app for 5 s, then
// launches the target app and types.
func monitoredSession(t *testing.T) (*victim.Session, *kgsl.File) {
	t.Helper()
	cfg := baseVictimConfig()
	cfg.Seed = 404
	cfg.PreLaunch = 5 * sim.Second
	sess := victim.New(cfg)
	sess.Run(input.Typing("monitored1", input.Volunteers[0], input.SpeedAny,
		sim.NewRand(17), cfg.PreLaunch+800*sim.Millisecond))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	return sess, f
}

// checkMonitored fails unless res detected the launch at the real one,
// not during the foreign phase, and eavesdropped the text exactly.
func checkMonitored(t *testing.T, sess *victim.Session, res *MonitorResult) {
	t.Helper()
	if !res.Detected {
		t.Fatal("target app launch not detected")
	}
	if res.LaunchDetectedAt < sess.LaunchAt || res.LaunchDetectedAt > sess.LaunchAt+200*sim.Millisecond {
		t.Fatalf("detected at %v, launch at %v", res.LaunchDetectedAt, sess.LaunchAt)
	}
	if res.Result == nil || res.Result.Text != sess.TypedText() {
		t.Fatalf("monitored eavesdropping got %+v, want %q", res.Result, sess.TypedText())
	}
}

// TestMonitorStopsWithContext pins that the monitoring service stops at
// the first tick after its context ends, in the idle wait and in the
// full-rate phase alike.
func TestMonitorStopsWithContext(t *testing.T) {
	for _, c := range []struct {
		phase string
		// from is when the context ends, relative to the launch.
		from sim.Time
	}{
		{"idle wait", -2 * sim.Second},
		{"full rate", sim.Second},
	} {
		sess, f := monitoredSession(t)
		ctx, cancel := context.WithCancel(context.Background())
		from := sess.LaunchAt + c.from
		p := &failingProbe{Probe: f, onRead: func(at sim.Time) {
			if at >= from {
				cancel()
			}
		}}
		_, err := New(sharedModel(t)).MonitorAndEavesdrop(ctx, p, 0, sess.End)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: context ended at %v, monitor returns %v; want context.Canceled", c.phase, from, err)
		}
	}
}

func TestMonitorDetectsLaunchAndEavesdrops(t *testing.T) {
	sess, f := monitoredSession(t)
	res, err := New(sharedModel(t)).MonitorAndEavesdrop(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	checkMonitored(t, sess, res)
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
	res, err := atk.MonitorAndEavesdrop(context.Background(), f, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("monitor fired on a non-target app at %v", res.LaunchDetectedAt)
	}
}

// TestMonitorUnderFaults pins that the idle watch polls through the
// sampler: with Retry on, a moderate or severe fault plane costs neither
// the launch nor the text, and with it off the first injected device
// error ends the run as a *SampleError.
func TestMonitorUnderFaults(t *testing.T) {
	m := sharedModel(t)
	for _, p := range []fault.Profile{fault.Moderate, fault.Severe} {
		for _, retry := range []bool{true, false} {
			sess, f := monitoredSession(t)
			atk := New(m)
			atk.Retry = retry
			res, err := atk.MonitorAndEavesdrop(context.Background(), fault.NewFile(f, p, 7), 0, sess.End)
			if !retry {
				var se *SampleError
				if !errors.As(err, &se) {
					t.Errorf("%s without retry: %v, want a *SampleError", p.Name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s with retry: %v", p.Name, err)
			}
			checkMonitored(t, sess, res)
		}
	}
}

// TestMonitorRecoveryCountsBothPhases pins that a monitored run reports
// the idle wait's recovery work beside the full-rate phase's: under a
// severe fault plane the two phases' retries, re-reservations and
// dropped ticks add up to the sampler's telemetry counters, which count
// every poll of the run.
func TestMonitorRecoveryCountsBothPhases(t *testing.T) {
	sess, f := monitoredSession(t)
	atk := New(sharedModel(t))
	atk.Retry = true
	atk.Obs = obs.New()
	res, err := atk.MonitorAndEavesdrop(context.Background(), fault.NewFile(f, fault.Severe, 7), 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	checkMonitored(t, sess, res)
	idle, full := res.IdleRecovery, res.Result.Recovery
	for _, c := range []struct {
		counter    string
		idle, full int
	}{
		{mSamplerRetries, idle.Retries, full.Retries},
		{mSamplerRereservations, idle.ReReservations, full.ReReservations},
		{mSamplerDroppedTicks, idle.DroppedTicks, full.DroppedTicks},
	} {
		if c.idle == 0 {
			t.Errorf("%s: the idle phase recovered nothing, so the sum checks nothing", c.counter)
		}
		if got := atk.Obs.Metrics().Counter(c.counter); got != int64(c.idle+c.full) {
			t.Errorf("%s = %d, want idle %d + full rate %d", c.counter, got, c.idle, c.full)
		}
	}
}
