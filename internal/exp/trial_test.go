package exp

import (
	"bytes"
	"fmt"
	"testing"

	"gpuleak/internal/fault"
	"gpuleak/internal/obs"
)

// traceTracks runs fn with a fresh tracer and returns the exported JSONL
// stream and the set of tracks that recorded events.
func traceTracks(t *testing.T, fn func(*obs.Tracer) error) ([]byte, map[string]bool) {
	t.Helper()
	tr := obs.New()
	if err := fn(tr); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, e := range events {
		tracks[e.Track] = true
	}
	return buf.Bytes(), tracks
}

// TestTracedSweepOneTrackPerTrial pins Options.Obs' promise on a sweep
// whose cells once traced onto shared tracks: traced Fig 22 records every
// trial on its own track, trial/i in trial order, and its stream is
// byte-identical at workers 1 and 8 over repeated runs.
func TestTracedSweepOneTrackPerTrial(t *testing.T) {
	fig22 := func(workers int) ([]byte, map[string]bool) {
		return traceTracks(t, func(tr *obs.Tracer) error {
			_, err := RunFig22(Options{Quick: true, Seed: 20260705, Workers: workers, Obs: tr})
			return err
		})
	}
	serial, tracks := fig22(1)
	trials := 8 * (Options{Quick: true}).Trials(150) // 2 loads x 4 levels
	if len(tracks) != trials {
		t.Errorf("%d tracks recorded events, want one per trial (%d)", len(tracks), trials)
	}
	for i := 0; i < trials; i++ {
		if !tracks[fmt.Sprintf("trial/%04d", i)] {
			t.Errorf("trial %d has no track of its own", i)
		}
	}
	for run := 0; run < 2; run++ {
		if par, _ := fig22(8); !bytes.Equal(serial, par) {
			t.Fatalf("run %d: workers=8 stream differs from workers=1 (%d vs %d bytes)", run, len(par), len(serial))
		}
	}
}

// TestTracedChaosRecordsEveryTrial covers the fault-plane trials: every
// (profile, trial) pair and every unfaulted baseline trial records onto
// its own track.
func TestTracedChaosRecordsEveryTrial(t *testing.T) {
	profiles := fault.Profiles()
	_, tracks := traceTracks(t, func(tr *obs.Tracer) error {
		_, err := runChaosProfiles(Options{Seed: 1, Obs: tr}, profiles, 2)
		return err
	})
	if want := 2*len(profiles) + 2; len(tracks) != want {
		t.Errorf("traced chaos recorded events on %d tracks, want %d", len(tracks), want)
	}
}
