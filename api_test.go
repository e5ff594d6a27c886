package gpuleak

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gpuleak/internal/serve"
)

// TestErrorTaxonomy pins the facade's stable sentinels: errors from any
// layer match them under errors.Is, including the legacy concrete
// UnknownExperimentError type.
func TestErrorTaxonomy(t *testing.T) {
	// Unknown experiment: both entry points, both matchers.
	if _, err := RunExperiment("fig99", true, 1); err == nil {
		t.Fatal("RunExperiment(fig99) succeeded")
	} else {
		var ue *UnknownExperimentError
		if !errors.As(err, &ue) || ue.ID != "fig99" {
			t.Fatalf("RunExperiment error %v is not UnknownExperimentError", err)
		}
		if !errors.Is(err, ErrUnknownExperiment) {
			t.Fatalf("RunExperiment error %v does not match ErrUnknownExperiment", err)
		}
	}

	// Model not trained: eavesdropping with no preloaded models.
	sess := NewVictim(VictimConfig{Device: OnePlus8Pro, Seed: 1})
	sess.Run(TypeText("x", 1))
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttack().Eavesdrop(f, 0, sess.End); !errors.Is(err, ErrModelNotTrained) {
		t.Fatalf("modelless Eavesdrop error %v does not match ErrModelNotTrained", err)
	}

	// Busy: the serving layer's rejection matches through the facade alias.
	if !errors.Is(serve.ErrBusy, ErrBusy) {
		t.Fatal("serve.ErrBusy does not match gpuleak.ErrBusy")
	}
}

// TestTrainContextMatchesTrainWith pins that the functional-option entry
// point is a pure veneer: same knobs, bit-identical model.
func TestTrainContextMatchesTrainWith(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 42}
	viaStruct, err := TrainWith(cfg, CollectOptions{Repeats: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	viaOptions, err := TrainContext(context.Background(), cfg,
		WithRepeats(1), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := viaStruct.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := viaOptions.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("TrainContext model differs from TrainWith model (%d vs %d bytes)",
			b.Len(), a.Len())
	}
}

// TestTrainContextCanceled pins prompt cancellation: a dead context stops
// the offline phase with the context's error.
func TestTrainContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 1}
	if _, err := TrainContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainContext with dead context: %v, want context.Canceled", err)
	}
}

// TestEavesdropContextCanceled pins sampler-tick cancellation on the
// online phase.
func TestEavesdropContextCanceled(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 5}
	model, err := TrainWith(cfg, CollectOptions{Repeats: 1})
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

// TestRunExperimentContextCanceled pins trial-granular cancellation on
// the experiment runner.
func TestRunExperimentContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperimentContext(ctx, "fig17", true, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunExperimentContext with dead context: %v, want context.Canceled", err)
	}
}

// TestRunExperimentContextMatchesLegacy pins that the context-aware
// experiment runner returns the same table as the legacy signature.
func TestRunExperimentContextMatchesLegacy(t *testing.T) {
	legacy, err := RunExperiment("fig17", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunExperimentContext(context.Background(), "fig17", true, 1, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Table.String() != viaCtx.Table.String() {
		t.Fatalf("context-aware fig17 table differs from legacy:\n%s\nvs\n%s",
			viaCtx.Table.String(), legacy.Table.String())
	}
}
