package exp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

func TestGroupAccuraciesAligned(t *testing.T) {
	got := GroupAccuracies([]string{"abc1"}, []string{"abc1"})
	if got["lower"] != 1 || got["number"] != 1 {
		t.Fatalf("perfect match scored %v", got)
	}
}

func TestGroupAccuraciesSurvivesDroppedChar(t *testing.T) {
	// A dropped leading char must not zero out the rest via misalignment.
	got := GroupAccuracies([]string{"bcdef"}, []string{"abcdef"})
	if got["lower"] < 0.8 {
		t.Fatalf("greedy alignment failed: %v", got)
	}
}

func TestScoreConfusionSubstitution(t *testing.T) {
	c := stats.NewConfusion()
	scoreConfusion(c, "axc", "abc")
	if c.Accuracy('a') != 1 || c.Accuracy('c') != 1 {
		t.Fatal("correct chars penalized")
	}
	if c.Accuracy('b') != 0 {
		t.Fatal("substitution not recorded")
	}
}

func TestScoreConfusionInsertionDeletion(t *testing.T) {
	c := stats.NewConfusion()
	scoreConfusion(c, "abxc", "abc") // one extra inferred key
	if c.Accuracy('a') != 1 || c.Accuracy('b') != 1 || c.Accuracy('c') != 1 {
		t.Fatalf("insertion misaligned scoring")
	}
	c2 := stats.NewConfusion()
	scoreConfusion(c2, "ac", "abc") // one missed key
	if c2.Accuracy('b') != 0 {
		t.Fatal("deletion not penalized")
	}
	if c2.Accuracy('a') != 1 || c2.Accuracy('c') != 1 {
		t.Fatal("deletion misaligned scoring")
	}
}

func TestTrialsScaling(t *testing.T) {
	if (Options{Quick: true}).Trials(300) != 30 {
		t.Fatal("quick scaling wrong")
	}
	if (Options{Quick: true}).Trials(10) != 4 {
		t.Fatal("quick floor wrong")
	}
	if (Options{}).Trials(300) != 300 {
		t.Fatal("full scaling wrong")
	}
}

func TestTrainModelCacheStable(t *testing.T) {
	a, err := TrainModel(context.Background(), DefaultConfig(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainModel(context.Background(), DefaultConfig(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("model cache miss for identical config")
	}
}

// fakeCollect replaces TrainModel's collector with fn for the test and
// counts its calls. The configuration it returns has an app of its own,
// so its key is not yet cached, and the test's entries leave the cache
// when it ends.
func fakeCollect(t *testing.T, app string, fn func(context.Context) (*attack.Model, error)) (victim.Config, *atomic.Int64) {
	t.Helper()
	calls := new(atomic.Int64)
	real := collect
	collect = func(ctx context.Context, _ victim.Config, _ attack.CollectOptions) (*attack.Model, error) {
		calls.Add(1)
		return fn(ctx)
	}
	cfg := DefaultConfig()
	cfg.App = &android.App{Name: app}
	t.Cleanup(func() {
		collect = real
		modelMu.Lock()
		defer modelMu.Unlock()
		for k := range modelCache {
			if strings.HasSuffix(k, "/app="+app) {
				delete(modelCache, k)
			}
		}
	})
	return cfg, calls
}

// cached reports whether TrainModel's cache holds an entry for app.
func cached(app string) bool {
	modelMu.Lock()
	defer modelMu.Unlock()
	for k := range modelCache {
		if strings.HasSuffix(k, "/app="+app) {
			return true
		}
	}
	return false
}

// TestTrainModelCanceled pins TrainModel's context on a configuration
// not yet cached: a dead context returns context.Canceled, trains
// nothing and caches nothing, and a following live call trains.
func TestTrainModelCanceled(t *testing.T) {
	cfg, calls := fakeCollect(t, "uncached", func(context.Context) (*attack.Model, error) {
		return &attack.Model{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainModel(ctx, cfg, 0, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainModel with a dead context: %v, want context.Canceled", err)
	}
	if calls.Load() != 0 || cached("uncached") {
		t.Fatalf("a canceled TrainModel trained %d times, cached %v; want neither", calls.Load(), cached("uncached"))
	}
	if m, err := TrainModel(context.Background(), cfg, 0, ""); err != nil || m == nil {
		t.Fatalf("live TrainModel: %v, %v", m, err)
	}
	if calls.Load() != 1 || !cached("uncached") {
		t.Fatalf("live TrainModel trained %d times, cached %v; want once, cached", calls.Load(), cached("uncached"))
	}
}

// TestTrainModelWaiterOutlivesTrainer pins that a caller does not
// inherit another's cancellation: a training canceled by its trainer's
// context is not cached, and a caller with a live context retrains.
func TestTrainModelWaiterOutlivesTrainer(t *testing.T) {
	started := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	cfg, calls := fakeCollect(t, "abandoned", func(ctx context.Context) (*attack.Model, error) {
		if first.Swap(false) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &attack.Model{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	trainer := make(chan error, 1)
	go func() {
		_, err := TrainModel(ctx, cfg, 0, "")
		trainer <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := TrainModel(context.Background(), cfg, 0, "")
		waiter <- err
	}()
	cancel()
	if err := <-trainer; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled trainer: %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("live waiter: %v, want a model", err)
	}
	if calls.Load() != 2 || !cached("abandoned") {
		t.Fatalf("%d trainings, cached %v; want 2, cached", calls.Load(), cached("abandoned"))
	}
}
