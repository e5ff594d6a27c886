package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/victim"
)

// TrainFunc runs the offline phase for one controlled configuration on
// one side channel (canonical name; "" = KGSL). It must be deterministic
// in (configuration, channel) alone: the registry deduplicates
// concurrent trainings, so whichever request triggers it defines the
// model every later hit receives.
type TrainFunc func(ctx context.Context, cfg victim.Config, channel string) (*attack.Model, error)

// Registry is the sharded model store: classifiers keyed by victim
// configuration, trained on miss exactly once per key (singleflight),
// evicted least-recently-used when a shard exceeds its capacity.
//
// Sharding serves two masters: lock contention (a training holds no shard
// lock, but hit bookkeeping does) and the serving layer's work queues,
// which are per-shard so a hot configuration saturates its own queue
// without starving the rest of the key space.
type Registry struct {
	shards []*regShard
	cap    int
	train  TrainFunc
	m      *obs.Metrics
	// evictions counts this registry's LRU evictions; the serving layer
	// snapshots it into /metrics.
	evictions atomic.Int64
}

// regShard is one lock domain of the registry. seq is a logical clock for
// LRU ordering: it advances on every touch, so eviction order is a pure
// function of the access sequence, never of the wall clock.
type regShard struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	seq     uint64
}

// regEntry is one (possibly in-flight) model. ready is closed once m/err
// are final; waiters read them only after the close, which is what makes
// the singleflight race-free without holding the shard lock through a
// training.
type regEntry struct {
	ready    chan struct{}
	m        *attack.Model
	err      error
	lastUse  uint64
	training bool
}

// NewRegistry builds a registry with nShards lock domains holding at most
// capPerShard trained models each (minimums of 1 are enforced). train may
// be nil, selecting the default offline phase (attack.CollectContext on
// the configuration, trainRepeats repeats).
func NewRegistry(nShards, capPerShard int, train TrainFunc, m *obs.Metrics) *Registry {
	if nShards < 1 {
		nShards = 1
	}
	if capPerShard < 1 {
		capPerShard = 1
	}
	if train == nil {
		train = func(ctx context.Context, cfg victim.Config, channel string) (*attack.Model, error) {
			return attack.CollectContext(ctx, cfg, attack.CollectOptions{Repeats: trainRepeats, Channel: channel})
		}
	}
	r := &Registry{cap: capPerShard, train: train, m: m}
	for i := 0; i < nShards; i++ {
		r.shards = append(r.shards, &regShard{entries: map[string]*regEntry{}})
	}
	return r
}

// ChannelKey derives the registry key of a victim configuration and a
// side channel: the classifier identity (device, resolution, keyboard,
// refresh rate, channel) plus the target app, whose login screen shapes
// the learned noise signatures. The default KGSL channel ("" or "kgsl")
// adds no channel tag, so pre-channel-plane registry contents and shard
// routing are unchanged.
func ChannelKey(cfg victim.Config, channel string) string {
	app := "Chase"
	if cfg.App != nil {
		app = cfg.App.Name
	}
	return attack.ModelKeyForChannel(cfg, channel).String() + "/app=" + app
}

// ShardFor maps a registry key onto a shard index; the serving layer uses
// the same mapping for its work queues so one configuration's load lands
// on one queue.
func (r *Registry) ShardFor(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// modelRef names one registry entry: its key, ChannelKey of the
// configuration and channel, and the shard ShardFor maps the key to.
type modelRef struct {
	key   string
	shard int
}

// ref derives the registry reference of a configuration and a channel.
func (r *Registry) ref(cfg victim.Config, channel string) modelRef {
	key := ChannelKey(cfg, channel)
	return modelRef{key: key, shard: r.ShardFor(key)}
}

// Shards returns the number of shards.
func (r *Registry) Shards() int { return len(r.shards) }

// GetChannel returns the model for a configuration and a side channel
// (canonical name; "" = KGSL), training it on miss. The first caller of
// a key trains with the shard lock released; concurrent callers of the
// same key wait for that training (or their own context), and callers of
// other keys proceed independently. A failed training is not cached —
// the entry is removed so a later request retries.
func (r *Registry) GetChannel(ctx context.Context, cfg victim.Config, channel string) (*attack.Model, error) {
	m, _, err := r.get(ctx, r.ref(cfg, channel), cfg, channel)
	return m, err
}

// get is GetChannel for the entry ref names, the reference of cfg and
// channel, that also reports whether the model was resident and trained
// when asked — what LookupChannel would have found — so a caller learns
// it from the one lookup it counts. A hit on a training still in flight
// is not cached. A waiter whose trainer's context ended while its own is
// alive trains the key itself.
func (r *Registry) get(ctx context.Context, ref modelRef, cfg victim.Config, channel string) (*attack.Model, bool, error) {
	key := ref.key
	sh := r.shards[ref.shard]

	sh.mu.Lock()
	for {
		e, ok := sh.entries[key]
		if !ok {
			break
		}
		sh.seq++
		e.lastUse = sh.seq
		cached := !e.training
		sh.mu.Unlock()
		r.m.Add(mRegistryHits, 1)
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("serve: waiting for model %s: %w", key, ctx.Err())
		}
		trainerCanceled := errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)
		if !trainerCanceled || ctx.Err() != nil {
			return e.m, cached, e.err
		}
		sh.mu.Lock()
	}
	e := &regEntry{ready: make(chan struct{}), training: true}
	sh.seq++
	e.lastUse = sh.seq
	sh.entries[key] = e
	sh.evict(r.cap, &r.evictions)
	sh.mu.Unlock()
	r.m.Add(mRegistryMisses, 1)

	m, err := r.train(ctx, cfg, channel)
	e.m, e.err = m, err
	sh.mu.Lock()
	e.training = false
	if err != nil {
		// Do not cache failures: if this exact entry is still resident,
		// drop it so the next request retrains.
		if sh.entries[key] == e {
			delete(sh.entries, key)
		}
	}
	// The insert-time eviction skipped every entry still training, so a
	// shard can sit above its cap until trainings land; trim it now.
	sh.evict(r.cap, &r.evictions)
	sh.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, false, fmt.Errorf("serve: training %s: %w", key, err)
	}
	r.m.Add(mRegistryTrained, 1)
	return m, false, nil
}

// Lookup returns the model for a configuration only if it is already
// resident and trained; otherwise it fails with ErrModelNotTrained
// (without waiting on an in-flight training and without training).
func (r *Registry) Lookup(cfg victim.Config) (*attack.Model, error) {
	return r.LookupChannel(cfg, "")
}

// LookupChannel is Lookup for a model trained on a named side channel.
func (r *Registry) LookupChannel(cfg victim.Config, channel string) (*attack.Model, error) {
	return r.lookup(r.ref(cfg, channel))
}

// lookup is LookupChannel for the entry ref names.
func (r *Registry) lookup(ref modelRef) (*attack.Model, error) {
	key := ref.key
	sh := r.shards[ref.shard]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok && !e.training {
		sh.seq++
		e.lastUse = sh.seq
		sh.mu.Unlock()
		r.m.Add(mRegistryHits, 1)
		// A resident non-training entry is final: ready is already closed.
		return e.m, e.err
	}
	sh.mu.Unlock()
	r.m.Add(mRegistryMisses, 1)
	return nil, fmt.Errorf("serve: no model for %s: %w", key, attack.ErrModelNotTrained)
}

// evict removes least-recently-used trained entries until the shard is
// within capacity. In-flight trainings are never evicted (their waiters
// hold the entry anyway); a shard may therefore exceed cap by its number
// of concurrent trainings until they land, which the serving layer's
// bounded queues keep finite. Get calls it on every insert and every
// landing, so a quiescent shard is within capacity. n counts what it
// removes.
func (sh *regShard) evict(cap int, n *atomic.Int64) {
	//gpuvet:ignore lockcheck -- held by caller (Get locks sh.mu)
	for len(sh.entries) > cap {
		victimKey, oldest := "", ^uint64(0)
		for k, e := range sh.entries {
			if e.training {
				continue
			}
			if e.lastUse < oldest {
				oldest = e.lastUse
				victimKey = k
			}
		}
		if victimKey == "" {
			return
		}
		delete(sh.entries, victimKey)
		n.Add(1)
	}
}

// Stats reports the registry's resident and in-flight entry counts.
func (r *Registry) Stats() (models, training int) {
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.training {
				training++
			} else {
				models++
			}
		}
		sh.mu.Unlock()
	}
	return models, training
}
