// Package exp reproduces every table and figure of the paper's evaluation
// (§7, §8, §9.3 and Table 2). Each Run* function executes one experiment
// on the simulated stack and returns a printable table plus named scalar
// metrics that the benchmark harness and the regression tests assert on.
//
// Experiments run at two scales: Quick (CI-friendly subsets) and full
// (paper-scale trial counts). All runs are seeded and deterministic.
package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// Options controls experiment scale and seeding.
type Options struct {
	// Quick shrinks trial counts for CI; the full scale matches the
	// paper's methodology (e.g. 300 random texts per input length).
	Quick bool
	// Seed drives every random choice in the experiment.
	Seed int64
	// Workers caps the pool an experiment fans its trials across, and
	// the pool of each model training: 1 is fully serial, 0 (the default)
	// uses one worker per CPU. Results are byte-identical at any worker
	// count — every trial derives its seed from its index, never from
	// scheduling.
	Workers int
	// Obs, when non-nil, records per-trial telemetry: every eavesdrop of
	// an experiment gets its own child track, trial/i for the i-th trial
	// in the experiment's trial list, created in that order before the
	// trials fan out, so the stream is independent of scheduling. Model
	// training stays uninstrumented: the cache's singleflight makes
	// who-trains scheduling-dependent.
	Obs *obs.Tracer
	// Ctx, when non-nil, cancels the experiment cooperatively: no trial
	// or model training starts once it ends, in-flight eavesdrops and
	// trainings abort at the next sampler tick, and every experiment that
	// trains, samples or eavesdrops returns its error. A run that
	// completes is byte-identical to an uncanceled one.
	Ctx context.Context
}

// Context resolves the cancellation context (Background when unset).
func (o Options) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Trials scales a paper-sized trial count down in quick mode.
func (o Options) Trials(full int) int {
	if !o.Quick {
		return full
	}
	n := full / 10
	if n < 4 {
		n = 4
	}
	return n
}

// Result is one experiment's output.
type Result struct {
	ID      string
	Table   stats.Table
	Metrics map[string]float64
}

// Metric fetches a named metric (0 when absent).
func (r *Result) Metric(name string) float64 { return r.Metrics[name] }

func newResult(id, title string, header ...string) *Result {
	return &Result{
		ID:      id,
		Table:   stats.Table{Title: title, Header: header},
		Metrics: map[string]float64{},
	}
}

// ---------------------------------------------------------------------
// Shared infrastructure.

// DefaultConfig is the paper's workhorse configuration: OnePlus 8 Pro,
// GBoard, Chase, FHD+ at 60 Hz, with realistic render jitter.
func DefaultConfig() victim.Config {
	return victim.Config{
		Device:       android.OnePlus8Pro,
		App:          android.Chase,
		Keyboard:     keyboard.GBoard,
		RenderJitter: 0.0001,
	}
}

// modelCache shares trained classifiers across experiments; offline
// collection is the expensive step, exactly as in the real attack where
// models are trained once per configuration and preloaded. Each entry is
// a singleflight: the first caller of a configuration trains while the
// lock is released, so concurrent experiments training DIFFERENT
// configurations proceed in parallel and concurrent callers of the SAME
// configuration wait for one training instead of duplicating it. ready is
// closed once m and err are final; a failed entry leaves the cache before
// that.
type modelEntry struct {
	ready chan struct{}
	m     *attack.Model
	err   error
}

var (
	modelMu    sync.Mutex
	modelCache = map[string]*modelEntry{}
	// collect is TrainModel's offline phase, a variable so that tests
	// can count and fake its trainings.
	collect = attack.CollectContext
)

// TrainModel returns the (cached) classifier for a configuration on a
// named side channel (empty = the default KGSL channel), training with
// the given collection worker count (1 = serial, 0 = one per CPU).
// Models of different channels cache under different keys. The worker
// count never changes the trained model — collection is byte-identical at
// any worker count — so it is not part of the cache key.
//
// ctx bounds the call: a dead context returns its error without training,
// and a training stops at its collection tasks' next sampler tick. The
// cache keeps no failed training, and a caller that waited on a training
// canceled by its trainer's context retrains under its own.
func TrainModel(ctx context.Context, cfg victim.Config, workers int, channel string) (*attack.Model, error) {
	train := cfg
	train.RenderJitter = 0
	train.CPULoad = 0
	train.GPULoad = 0
	train.Seed = 12345
	key := attack.ModelKeyForChannel(train, channel).String() + fmt.Sprintf("/app=%s", appName(train))
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		modelMu.Lock()
		e, ok := modelCache[key]
		if !ok {
			e = &modelEntry{ready: make(chan struct{})}
			modelCache[key] = e
		}
		modelMu.Unlock()
		if !ok {
			e.m, e.err = collect(ctx, train, attack.CollectOptions{Repeats: 2, Workers: workers, Channel: channel})
			if e.err != nil {
				modelMu.Lock()
				delete(modelCache, key)
				modelMu.Unlock()
			}
			close(e.ready)
			return e.m, e.err
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		trainerCanceled := errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)
		if !trainerCanceled {
			return e.m, e.err
		}
	}
}

func appName(cfg victim.Config) string {
	if cfg.App == nil {
		return "Chase"
	}
	return cfg.App.Name
}

// CredAlphabet is the character pool for random credentials: the paper's
// login usernames/passwords are dominated by lowercase letters and digits
// with occasional uppercase and symbols.
var CredAlphabet = []rune("abcdefghijklmnopqrstuvwxyz" +
	"abcdefghijklmnopqrstuvwxyz" + // double weight for lowercase
	"0123456789" +
	"ABCDEFGHIJKLMNOPQRSTUVWXYZ" +
	`@#$&-+()/*!?,.:;'"`)

// LowerDigits restricts credentials to lowercase plus digits (used where
// the experiment wants minimal page switching).
var LowerDigits = []rune("abcdefghijklmnopqrstuvwxyz0123456789")

// GroupAccuracies computes per-character-group accuracy (Fig 17c/21c)
// using the same greedy edit alignment as the per-key confusion scoring,
// so a single dropped character does not misalign the rest of the text.
func GroupAccuracies(inferred, truth []string) map[string]float64 {
	conf := stats.NewConfusion()
	for i := range truth {
		inf := ""
		if i < len(inferred) {
			inf = inferred[i]
		}
		scoreConfusion(conf, inf, truth[i])
	}
	accSum := map[string]float64{}
	count := map[string]int{}
	for _, r := range conf.Seen() {
		g := stats.CharGroup(r)
		accSum[g] += conf.Accuracy(r)
		count[g]++
	}
	out := map[string]float64{}
	for g, n := range count {
		out[g] = accSum[g] / float64(n)
	}
	return out
}
