package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/victim"
)

// cfgForApp builds a victim configuration whose registry key differs only
// in the target app — the cheapest way to mint distinct keys that all
// land wherever the test routes them.
func cfgForApp(name string) victim.Config {
	return victim.Config{
		Device: android.OnePlus8Pro,
		App:    &android.App{Name: name},
	}
}

// fakeTrain returns a TrainFunc that stamps the app name into the model
// (so tests can check each Get got the right classifier) and counts
// invocations per key.
func fakeTrain(calls *sync.Map) TrainFunc {
	return func(ctx context.Context, cfg victim.Config, channel string) (*attack.Model, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := ChannelKey(cfg, channel)
		n, _ := calls.LoadOrStore(k, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return &attack.Model{Key: attack.ModelKey{Device: cfg.App.Name}}, nil
	}
}

// TestRegistrySingleflight pins the dedup contract: many concurrent
// misses on the same key train exactly once.
func TestRegistrySingleflight(t *testing.T) {
	var calls sync.Map
	r := NewRegistry(1, 8, fakeTrain(&calls), obs.NewMetrics())
	cfg := cfgForApp("solo")

	const waiters = 32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := r.GetChannel(context.Background(), cfg, "")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if m.Key.Device != "solo" {
				t.Errorf("Get returned model %q, want %q", m.Key.Device, "solo")
			}
		}()
	}
	wg.Wait()

	n, ok := calls.Load(ChannelKey(cfg, ""))
	if !ok || n.(*atomic.Int64).Load() != 1 {
		t.Fatalf("train ran %v times for one key, want exactly 1", n)
	}
}

// TestRegistryRaceHammer churns one shard through concurrent
// miss-train-evict cycles: a single shard with capacity 2 serving 8
// distinct keys from 16 goroutines forces constant eviction and
// retraining while hits, misses and in-flight waits interleave. Run
// under -race this is the memory-safety proof of the singleflight
// entry lifecycle; the assertions pin that every caller still gets the
// model matching its key.
func TestRegistryRaceHammer(t *testing.T) {
	var calls sync.Map
	r := NewRegistry(1, 2, fakeTrain(&calls), obs.NewMetrics())

	const (
		keys       = 8
		goroutines = 16
		iters      = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				app := fmt.Sprintf("app%d", (g+i)%keys)
				m, err := r.GetChannel(context.Background(), cfgForApp(app), "")
				if err != nil {
					t.Errorf("Get(%s): %v", app, err)
					return
				}
				if m.Key.Device != app {
					t.Errorf("Get(%s) returned model %q", app, m.Key.Device)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	models, training := r.Stats()
	if training != 0 {
		t.Fatalf("training = %d after quiescence, want 0", training)
	}
	if models > 2 {
		t.Fatalf("models resident = %d, above shard cap 2", models)
	}
	if Evictions() == 0 {
		t.Fatal("hammering 8 keys through a cap-2 shard evicted nothing")
	}
}

// TestRegistryCapAfterOverlappingTrainings pins the cap once trainings
// land: 8 distinct keys miss a cap-2 shard together, so every insert-time
// eviction finds only in-flight entries to skip. The last landing must
// still leave the shard within its cap.
func TestRegistryCapAfterOverlappingTrainings(t *testing.T) {
	const keys = 8
	var started sync.WaitGroup
	started.Add(keys)
	release := make(chan struct{})
	r := NewRegistry(1, 2, func(ctx context.Context, cfg victim.Config, _ string) (*attack.Model, error) {
		started.Done()
		<-release
		return &attack.Model{Key: attack.ModelKey{Device: cfg.App.Name}}, nil
	}, obs.NewMetrics())

	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			if _, err := r.GetChannel(context.Background(), cfgForApp(app), ""); err != nil {
				t.Errorf("Get(%s): %v", app, err)
			}
		}(fmt.Sprintf("app%d", i))
	}
	started.Wait()
	close(release)
	wg.Wait()

	models, training := r.Stats()
	if training != 0 {
		t.Fatalf("training = %d after quiescence, want 0", training)
	}
	if models > 2 {
		t.Fatalf("models resident = %d, above shard cap 2", models)
	}
}

// TestRegistryFailureNotCached pins the retry contract: a failed
// training is dropped from the shard so the next Get retrains instead of
// replaying the stale error.
func TestRegistryFailureNotCached(t *testing.T) {
	boom := errors.New("collector exploded")
	var attempts atomic.Int64
	r := NewRegistry(1, 4, func(ctx context.Context, cfg victim.Config, _ string) (*attack.Model, error) {
		if attempts.Add(1) == 1 {
			return nil, boom
		}
		return &attack.Model{}, nil
	}, obs.NewMetrics())
	cfg := cfgForApp("flaky")

	if _, err := r.GetChannel(context.Background(), cfg, ""); !errors.Is(err, boom) {
		t.Fatalf("first Get: %v, want wrapped %v", err, boom)
	}
	if _, err := r.GetChannel(context.Background(), cfg, ""); err != nil {
		t.Fatalf("second Get should retrain after a failure: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("train attempts = %d, want 2", got)
	}
}

// TestRegistryLookupMiss pins the pretrained-only contract: Lookup never
// trains, never waits, and fails with the stable sentinel — including
// while a training for the same key is in flight.
func TestRegistryLookupMiss(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	r := NewRegistry(1, 4, func(ctx context.Context, cfg victim.Config, _ string) (*attack.Model, error) {
		close(started)
		<-release
		return &attack.Model{}, nil
	}, obs.NewMetrics())
	cfg := cfgForApp("pending")

	if _, err := r.Lookup(cfg); !errors.Is(err, attack.ErrModelNotTrained) {
		t.Fatalf("Lookup on cold registry: %v, want ErrModelNotTrained", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := r.GetChannel(context.Background(), cfg, "")
		done <- err
	}()
	<-started
	if _, err := r.Lookup(cfg); !errors.Is(err, attack.ErrModelNotTrained) {
		t.Fatalf("Lookup during in-flight training: %v, want ErrModelNotTrained", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := r.Lookup(cfg); err != nil {
		t.Fatalf("Lookup after training: %v", err)
	}
}

// TestRegistryGetCanceledWaiter pins that a waiter abandons an in-flight
// training when its context dies, without disturbing the training itself.
func TestRegistryGetCanceledWaiter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	r := NewRegistry(1, 4, func(ctx context.Context, cfg victim.Config, _ string) (*attack.Model, error) {
		close(started)
		<-release
		return &attack.Model{}, nil
	}, obs.NewMetrics())
	cfg := cfgForApp("slow")

	go r.GetChannel(context.Background(), cfg, "") //nolint:errcheck // released below
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.GetChannel(ctx, cfg, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: %v, want context.Canceled", err)
	}

	close(release)
	if _, err := r.GetChannel(context.Background(), cfg, ""); err != nil {
		t.Fatalf("Get after release: %v", err)
	}
}
