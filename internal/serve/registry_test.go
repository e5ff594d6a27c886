package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	if r.evictions.Load() == 0 {
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

// TestRegistryWaiterRetrainsAfterTrainerCancel pins that a waiter does
// not inherit its trainer's cancellation: one request starts a training
// and is canceled mid-training while a second, whose context is alive,
// waits on it. The second trains the key itself.
func TestRegistryWaiterRetrainsAfterTrainerCancel(t *testing.T) {
	started := make(chan struct{})
	var attempts atomic.Int64
	met := obs.NewMetrics()
	r := NewRegistry(1, 4, func(ctx context.Context, cfg victim.Config, _ string) (*attack.Model, error) {
		if attempts.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &attack.Model{}, nil
	}, met)
	cfg := cfgForApp("abandoned")

	ctx, cancel := context.WithCancel(context.Background())
	trainer := make(chan error, 1)
	go func() {
		_, err := r.GetChannel(ctx, cfg, "")
		trainer <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := r.GetChannel(context.Background(), cfg, "")
		waiter <- err
	}()
	// The waiter counts its hit on the in-flight entry before it waits.
	for met.Snapshot()[mRegistryHits] < 1 {
		runtime.Gosched()
	}
	cancel()
	if err := <-trainer; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled trainer: %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("live waiter: %v, want a model", err)
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

// TestRoutingKeyTable pins RoutingKey and ShardFor at 4 shards for every
// configuration the serving benchmark sends: the 12 serve-stream configs
// on the default channel and every (config, channel) pair of the fused
// serve-hostile mix. The router places sessions by RoutingKey and a
// replica queues them by ShardFor, so neither value may move; a server's
// memoised reference must agree with both, derived or remembered.
func TestRoutingKeyTable(t *testing.T) {
	reg := NewRegistry(4, 1, nil, nil)
	srv := NewServer(Options{Shards: 4})
	for _, c := range []struct {
		device, app, keyboard, channel string
		key                            string
		shard                          int
	}{
		{"OnePlus 8 Pro", "Chase", "gboard", "", "OnePlus 8 Pro/1080x2376/gboard@60/app=Chase", 1},
		{"OnePlus 8 Pro", "Chase", "swift", "", "OnePlus 8 Pro/1080x2376/swift@60/app=Chase", 3},
		{"OnePlus 8 Pro", "Amex", "gboard", "", "OnePlus 8 Pro/1080x2376/gboard@60/app=Amex", 2},
		{"OnePlus 8 Pro", "Amex", "swift", "", "OnePlus 8 Pro/1080x2376/swift@60/app=Amex", 0},
		{"Google Pixel 5", "Chase", "gboard", "", "Google Pixel 5/1080x2340/gboard@90/app=Chase", 2},
		{"Google Pixel 5", "Chase", "swift", "", "Google Pixel 5/1080x2340/swift@90/app=Chase", 0},
		{"Google Pixel 5", "Amex", "gboard", "", "Google Pixel 5/1080x2340/gboard@90/app=Amex", 3},
		{"Google Pixel 5", "Amex", "swift", "", "Google Pixel 5/1080x2340/swift@90/app=Amex", 1},
		{"Samsung Galaxy S21", "Chase", "gboard", "", "Samsung Galaxy S21/1080x2400/gboard@120/app=Chase", 1},
		{"Samsung Galaxy S21", "Chase", "swift", "", "Samsung Galaxy S21/1080x2400/swift@120/app=Chase", 1},
		{"Samsung Galaxy S21", "Amex", "gboard", "", "Samsung Galaxy S21/1080x2400/gboard@120/app=Amex", 2},
		{"Samsung Galaxy S21", "Amex", "swift", "", "Samsung Galaxy S21/1080x2400/swift@120/app=Amex", 2},
		{"OnePlus 8 Pro", "Chase", "gboard", "kgsl", "OnePlus 8 Pro/1080x2376/gboard@60/app=Chase", 1},
		{"OnePlus 8 Pro", "Chase", "gboard", "proccount", "OnePlus 8 Pro/1080x2376/gboard@60:proccount/app=Chase", 0},
		{"OnePlus 8 Pro", "Amex", "gboard", "kgsl", "OnePlus 8 Pro/1080x2376/gboard@60/app=Amex", 2},
		{"OnePlus 8 Pro", "Amex", "gboard", "proccount", "OnePlus 8 Pro/1080x2376/gboard@60:proccount/app=Amex", 1},
		{"Google Pixel 5", "Chase", "gboard", "kgsl", "Google Pixel 5/1080x2340/gboard@90/app=Chase", 2},
		{"Google Pixel 5", "Chase", "gboard", "proccount", "Google Pixel 5/1080x2340/gboard@90:proccount/app=Chase", 3},
		{"Google Pixel 5", "Amex", "gboard", "kgsl", "Google Pixel 5/1080x2340/gboard@90/app=Amex", 3},
		{"Google Pixel 5", "Amex", "gboard", "proccount", "Google Pixel 5/1080x2340/gboard@90:proccount/app=Amex", 0},
	} {
		req := EavesdropRequest{Device: c.device, App: c.app, Keyboard: c.keyboard, Channel: c.channel, Text: "x"}
		key, err := RoutingKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if key != c.key {
			t.Errorf("RoutingKey(%s/%s/%s/%q) = %q, want %q", c.device, c.app, c.keyboard, c.channel, key, c.key)
		}
		if got := reg.ShardFor(key); got != c.shard {
			t.Errorf("ShardFor(%q) = %d, want %d", key, got, c.shard)
		}
		scen, err := ResolveScenario(req)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if got := srv.ref(TrainConfig(scen.Cfg), scen.Primary()); got != (modelRef{c.key, c.shard}) {
				t.Errorf("server ref of %s/%s/%s/%q = %+v, want {%q %d}", c.device, c.app, c.keyboard, c.channel, got, c.key, c.shard)
			}
		}
	}
}
