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
	"fmt"
	"sync"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/sim"
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
	// Workers caps the worker pool each experiment fans its independent
	// trials, configurations and training sessions across: 1 is fully
	// serial, 0 (the default) uses one worker per CPU. Results are
	// byte-identical at any worker count — every trial derives its seed
	// from its index, never from scheduling.
	Workers int
	// Obs, when non-nil, records per-trial telemetry (one child track per
	// RunBatch trial, created in index order so the stream is independent
	// of scheduling). Model training stays uninstrumented: the cache's
	// singleflight makes who-trains scheduling-dependent.
	Obs *obs.Tracer
	// Ctx, when non-nil, cancels the experiment cooperatively: batches
	// stop issuing trials and in-flight eavesdrops abort at the next
	// sampler tick. A run that completes is byte-identical to an
	// uncanceled one.
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
// configuration wait for one training instead of duplicating it.
type modelEntry struct {
	once sync.Once
	m    *attack.Model
	err  error
}

var (
	modelMu    sync.Mutex
	modelCache = map[string]*modelEntry{}
)

// TrainModel returns the (cached) classifier for a configuration on a
// named side channel (empty = the default KGSL channel), training with
// the given collection worker count (1 = serial, 0 = one per CPU).
// Models of different channels cache under different keys. The worker
// count never changes the trained model — collection is byte-identical at
// any worker count — so it is not part of the cache key. Training takes
// no context: the cache keeps an entry's error for good, so a canceled
// caller must not be able to store one.
func TrainModel(cfg victim.Config, workers int, channel string) (*attack.Model, error) {
	train := cfg
	train.RenderJitter = 0
	train.CPULoad = 0
	train.GPULoad = 0
	train.Seed = 12345
	key := attack.ModelKeyForChannel(train, channel).String() + fmt.Sprintf("/app=%s", appName(train))
	modelMu.Lock()
	e, ok := modelCache[key]
	if !ok {
		e = &modelEntry{}
		modelCache[key] = e
	}
	modelMu.Unlock()
	e.once.Do(func() {
		e.m, e.err = attack.Collect(train, attack.CollectOptions{Repeats: 2, Workers: workers, Channel: channel})
	})
	return e.m, e.err
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

// EavesdropOnce runs a full victim session typing text and returns the
// attack's inference.
func EavesdropOnce(cfg victim.Config, m *attack.Model, text string,
	vol input.Volunteer, speed input.Speed, interval sim.Time,
	opts attack.OnlineOptions, seed int64) (inferred, truth string, st attack.EngineStats, err error) {
	return eavesdropOnce(context.Background(), cfg, m, text, vol, speed, interval, opts, seed, nil)
}

// eavesdropOnce is EavesdropOnce with a cancellation context and a
// telemetry track attached: the sampler span and every engine verdict of
// the run land on obsTr.
func eavesdropOnce(ctx context.Context, cfg victim.Config, m *attack.Model, text string,
	vol input.Volunteer, speed input.Speed, interval sim.Time,
	opts attack.OnlineOptions, seed int64, obsTr *obs.Tracer) (inferred, truth string, st attack.EngineStats, err error) {

	cfg.Seed = seed
	sess := victim.New(cfg)
	script := input.Typing(text, vol, speed, sim.NewRand(seed^0x5DEECE66D), 700*sim.Millisecond)
	sess.Run(script)
	sess.Device.SetMetrics(obsTr.Metrics())
	f, err := sess.Open()
	if err != nil {
		return "", "", attack.EngineStats{}, err
	}
	atk := &attack.Attack{Models: []*attack.Model{m}, Interval: interval, Options: opts, Obs: obsTr}
	res, err := atk.EavesdropContext(ctx, f, 0, sess.End)
	if err != nil {
		return "", "", attack.EngineStats{}, err
	}
	return res.Text, sess.TypedText(), res.Stats, nil
}

// BatchResult aggregates a batch of eavesdropping runs.
type BatchResult struct {
	Inferred []string
	Truth    []string
	Stats    attack.EngineStats
}

// TextAccuracy returns the exact-match accuracy (§7.1).
func (b *BatchResult) TextAccuracy() float64 { return stats.TextAccuracy(b.Inferred, b.Truth) }

// CharAccuracy returns the per-key accuracy (§7.1).
func (b *BatchResult) CharAccuracy() float64 { return stats.CharAccuracy(b.Inferred, b.Truth) }

// MeanErrors returns the mean number of wrong keys per text (Fig 17b).
func (b *BatchResult) MeanErrors() float64 { return stats.MeanErrors(b.Inferred, b.Truth) }

// RunBatch eavesdrops n random credentials of the given length. Sessions
// are independent simulations, so they fan out across o.Workers; texts
// and seeds are assigned by index, keeping results identical to a serial
// run.
func RunBatch(o Options, cfg victim.Config, m *attack.Model, alphabet []rune, length, n int,
	vol input.Volunteer, speed input.Speed, interval sim.Time,
	opts attack.OnlineOptions, seed int64) (*BatchResult, error) {

	rng := sim.NewRand(seed)
	texts := make([]string, n)
	for i := range texts {
		texts[i] = input.RandomText(rng, alphabet, length)
	}

	// Trial tracks are pre-created in index order by this goroutine, so
	// the merged telemetry stream is identical at any worker count.
	var children []*obs.Tracer
	if o.Obs != nil {
		children = make([]*obs.Tracer, n)
		for i := range children {
			children[i] = o.Obs.Child(fmt.Sprintf("trial/%03d", i))
		}
	}

	type slot struct {
		inferred, truth string
		stats           attack.EngineStats
	}
	slots := make([]slot, n)
	err := parallel.ForEachCtx(o.Context(), o.Workers, n, func(i int) error {
		var tr *obs.Tracer
		if children != nil {
			tr = children[i]
		}
		inf, truth, st, err := eavesdropOnce(o.Context(), cfg, m, texts[i], vol, speed,
			interval, opts, seed+int64(i)*101, tr)
		if err != nil {
			return err
		}
		slots[i] = slot{inferred: inf, truth: truth, stats: st}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &BatchResult{}
	for _, s := range slots {
		out.Inferred = append(out.Inferred, s.inferred)
		out.Truth = append(out.Truth, s.truth)
		accumulate(&out.Stats, s.stats)
	}
	return out, nil
}

func accumulate(dst *attack.EngineStats, s attack.EngineStats) {
	dst.Deltas += s.Deltas
	dst.Keys += s.Keys
	dst.Duplicates += s.Duplicates
	dst.Splits += s.Splits
	dst.Noise += s.Noise
	dst.NoiseSplits += s.NoiseSplits
	dst.Recombined += s.Recombined
	dst.Unknown += s.Unknown
	dst.Corrections += s.Corrections
	dst.Switches += s.Switches
	dst.Gaps += s.Gaps
	dst.Resyncs += s.Resyncs
}

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
