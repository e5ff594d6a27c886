package gpuleak

import (
	"context"

	"gpuleak/internal/attack"
	"gpuleak/internal/exp"
)

// This file is the context-aware face of the package. Every entry point
// here honors cancellation cooperatively — the offline phase stops at
// per-(key, repeat) task boundaries, the online phase at sampler ticks —
// and a run that completes is byte-identical to its context-free
// counterpart: the context is a control channel, never an input to the
// simulation. The legacy signatures (Train, TrainWith, RunExperiment)
// remain as context.Background wrappers.

// TrainContext runs the offline phase with cancellation and functional
// options:
//
//	model, err := gpuleak.TrainContext(ctx, cfg,
//		gpuleak.WithWorkers(8), gpuleak.WithObs(tracer))
//
// Cancellation is honored between collection tasks (one per key repeat),
// so a canceled training returns ctx's error promptly instead of a
// partial model.
func TrainContext(ctx context.Context, cfg VictimConfig, opts ...Option) (*Model, error) {
	return attack.CollectContext(ctx, cfg, buildOptions(opts).collect())
}

// RunExperimentContext executes one experiment by figure/table ID with
// cancellation (trial-granular: no eavesdrop starts once ctx ends,
// in-flight ones abort at the next sampler tick, and the experiment
// returns ctx's error) and functional options (WithWorkers, WithObs).
// Unknown IDs fail with an error matching ErrUnknownExperiment.
func RunExperimentContext(ctx context.Context, id string, quick bool, seed int64, opts ...Option) (*exp.Result, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	o := buildOptions(opts)
	return e.Run(exp.Options{
		Quick: quick, Seed: seed,
		Workers: o.workers, Obs: o.obs, Ctx: ctx,
	})
}
