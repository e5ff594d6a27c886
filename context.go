package gpuleak

import (
	"context"

	"gpuleak/internal/attack"
	"gpuleak/internal/exp"
)

// This file is the context-aware face of the package. Every phase has
// one entry point, and it takes the caller's context: the offline phase
// stops at per-(key, repeat) task boundaries and at its sampler ticks,
// the online phase at sampler ticks. A run that completes does not depend
// on the context: it is a control channel, never an input to the
// simulation.

// TrainContext runs the offline phase on a controlled device of the given
// configuration and returns the classifier to preload into the attack.
// The zero CollectOptions trains 3 repeats per key through the KGSL
// channel on one worker per CPU:
//
//	model, err := gpuleak.TrainContext(ctx, cfg,
//		gpuleak.CollectOptions{Workers: 8, Obs: tracer})
//
// A canceled training returns ctx's error promptly instead of a partial
// model.
func TrainContext(ctx context.Context, cfg VictimConfig, opts CollectOptions) (*Model, error) {
	return attack.CollectContext(ctx, cfg, opts)
}

// RunExperimentContext executes one experiment by figure/table ID
// ("fig17", "table2", ...). quick shrinks trial counts for fast runs;
// workers caps the pool its trials and model trainings fan across (1 is
// serial, 0 one worker per CPU; results are identical at any value); tr,
// when non-nil, records every trial's telemetry on its own track.
// Cancellation is trial-granular: no trial or training starts once ctx
// ends, in-flight ones abort at the next sampler tick, and the experiment
// returns ctx's error. Unknown IDs fail with an error matching
// ErrUnknownExperiment.
func RunExperimentContext(ctx context.Context, id string, quick bool, seed int64, workers int, tr *Tracer) (*exp.Result, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return e.Run(exp.Options{
		Quick: quick, Seed: seed,
		Workers: workers, Obs: tr, Ctx: ctx,
	})
}
