package attack

import (
	"context"
	"errors"
	"testing"

	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// TestEavesdropStreamMatchesOneShot pins the streaming tap's identity
// contract: a one-leg Stack.Run with emit over a device file produces the
// exact Result of EavesdropContext, and replaying its key/retract events
// reconstructs the final key sequence.
func TestEavesdropStreamMatchesOneShot(t *testing.T) {
	cfg := baseVictimConfig()
	cfg.Seed = 4242
	m := sharedModel(t)
	script := input.Typing("str3am", input.Volunteers[0], input.SpeedAny,
		sim.NewRand(9), 700*sim.Millisecond)

	open := func() (*victim.Session, DeviceFile) {
		sess := victim.New(cfg)
		sess.Run(script)
		f, err := sess.Open()
		if err != nil {
			t.Fatal(err)
		}
		return sess, f
	}

	sess1, f1 := open()
	want, err := New(m).EavesdropContext(context.Background(), f1, 0, sess1.End)
	if err != nil {
		t.Fatal(err)
	}

	sess2, f2 := open()
	var events []StreamEvent
	got, err := stream(context.Background(), New(m), f2, 0, sess2.End,
		func(ev StreamEvent) error {
			events = append(events, ev)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	if got.Text != want.Text || got.Stats != want.Stats ||
		got.EstimatedLength != want.EstimatedLength || got.Model != want.Model {
		t.Fatalf("streamed result %+v != one-shot %+v", got, want)
	}

	// Replaying the event tape must land on the one-shot key sequence.
	var replay []rune
	for _, ev := range events {
		switch ev.Kind {
		case "key":
			replay = append(replay, ev.Key.R)
		case "retract":
			replay = replay[:ev.Keys]
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
		if len(replay) != ev.Keys {
			t.Fatalf("event count %d disagrees with replayed length %d", ev.Keys, len(replay))
		}
	}
	if string(replay) != want.Text {
		t.Fatalf("replayed events %q != one-shot text %q", string(replay), want.Text)
	}

	// An emit error must abort the run.
	sess3, f3 := open()
	boom := errors.New("client went away")
	if _, err := stream(context.Background(), New(m), f3, 0, sess3.End,
		func(StreamEvent) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}
