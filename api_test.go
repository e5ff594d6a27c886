package gpuleak

import (
	"context"
	"errors"
	"testing"

	"gpuleak/internal/serve"
)

// TestErrorTaxonomy pins the facade's stable sentinels: errors from any
// layer match them under errors.Is, including the legacy concrete
// UnknownExperimentError type.
func TestErrorTaxonomy(t *testing.T) {
	// Unknown experiment: both matchers.
	if _, err := RunExperimentContext(context.Background(), "fig99", true, 1, 0, nil); err == nil {
		t.Fatal("RunExperimentContext(fig99) succeeded")
	} else {
		var ue *UnknownExperimentError
		if !errors.As(err, &ue) || ue.ID != "fig99" {
			t.Fatalf("RunExperimentContext error %v is not UnknownExperimentError", err)
		}
		if !errors.Is(err, ErrUnknownExperiment) {
			t.Fatalf("RunExperimentContext error %v does not match ErrUnknownExperiment", err)
		}
	}

	// Model not trained: eavesdropping with no preloaded models.
	sess := NewVictim(VictimConfig{Device: OnePlus8Pro, Seed: 1})
	sess.Run(TypeText("x", 1))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttack().EavesdropContext(context.Background(), f, 0, sess.End); !errors.Is(err, ErrModelNotTrained) {
		t.Fatalf("modelless EavesdropContext error %v does not match ErrModelNotTrained", err)
	}

	// Busy: the serving layer's rejection matches through the facade alias.
	if !errors.Is(serve.ErrBusy, ErrBusy) {
		t.Fatal("serve.ErrBusy does not match gpuleak.ErrBusy")
	}
}

// TestTrainContextCanceled pins prompt cancellation: a dead context stops
// the offline phase with the context's error.
func TestTrainContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 1}
	if _, err := TrainContext(ctx, cfg, CollectOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainContext with dead context: %v, want context.Canceled", err)
	}
}

// TestEavesdropContextCanceled pins sampler-tick cancellation on the
// online phase.
func TestEavesdropContextCanceled(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 5}
	model, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(cfg)
	sess.Run(TypeText("secret", 5))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewAttack(model).EavesdropContext(ctx, f, 0, sess.End); !errors.Is(err, context.Canceled) {
		t.Fatalf("EavesdropContext with dead context: %v, want context.Canceled", err)
	}
}

// TestRunExperimentContextCanceled pins cancellation on every experiment
// that trains a model or a classifier, samples counters or eavesdrops:
// with a dead context, each returns an error matching context.Canceled
// instead of doing that work. The exempt experiments do none of it: they
// read frame timelines, script statistics or power models only.
func TestRunExperimentContextCanceled(t *testing.T) {
	exempt := map[string]bool{
		"fig14": true, "fig16": true, "fig26": true, "fig27": true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Experiments() {
		if exempt[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if _, err := RunExperimentContext(ctx, e.ID, true, 1, 0, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("RunExperimentContext(%s) with dead context: %v, want context.Canceled", e.ID, err)
			}
		})
	}
}
