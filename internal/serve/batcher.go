package serve

import (
	"sync"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// Batcher coalesces concurrent per-delta classification calls into
// micro-batches, one queue per model shard. Under fleet load many
// requests classify deltas against the same resident models at the same
// time; draining whatever is pending in one dispatcher pass amortizes
// scheduler wake-ups and keeps a hot shard's classification work on one
// core instead of bouncing between request goroutines.
//
// Correctness contract: classification is a pure function of (model,
// vector), so batch composition can never change a verdict — the batched
// path is byte-identical to calling (*attack.Model).ClassifyDenoised
// directly, which batcher_test.go pins for every coalescing window. The
// sim-time window only bounds which pending calls may share one flush:
// jobs whose delta timestamps are farther apart than the window are
// flushed separately, keeping batch latency proportional to the
// streams' own clocks rather than to queue depth.
type Batcher struct {
	window sim.Time
	max    int
	m      *obs.Metrics

	queues []chan *classifyJob
	pool   sync.Pool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// classifyJob is one pending classification: the model to consult, the
// delta vector and its sim-time, and the reply channel the caller blocks
// on. Jobs are pooled — the coalesce/flush hot path allocates nothing
// per call in steady state (pinned by the root package's
// TestWarmPathAllocs).
type classifyJob struct {
	m     *attack.Model
	at    sim.Time
	v     trace.Vec
	reply chan attack.Verdict
}

// NewBatcher builds a batcher with one dispatcher goroutine per shard.
// window bounds the sim-time spread of one flush (0: only calls pending
// at the same instant coalesce); max caps one flush's size (minimum 1).
// Close must be called when the batcher is no longer needed.
func NewBatcher(shards int, window sim.Time, max int, m *obs.Metrics) *Batcher {
	if shards < 1 {
		shards = 1
	}
	if max < 1 {
		max = 1
	}
	b := &Batcher{
		window: window,
		max:    max,
		m:      m,
		stop:   make(chan struct{}),
	}
	b.pool.New = func() any {
		return &classifyJob{reply: make(chan attack.Verdict, 1)}
	}
	for i := 0; i < shards; i++ {
		q := make(chan *classifyJob, max)
		b.queues = append(b.queues, q)
		b.wg.Add(1)
		go b.dispatch(q)
	}
	return b
}

// Classify routes one classification through shard's micro-batch queue
// and blocks until the verdict is ready. The result equals
// m.ClassifyDenoised(v) exactly.
func (b *Batcher) Classify(shard int, m *attack.Model, at sim.Time, v trace.Vec) attack.Verdict {
	j := b.pool.Get().(*classifyJob)
	j.m, j.at, j.v = m, at, v
	b.queues[shard%len(b.queues)] <- j
	verdict := <-j.reply
	j.m = nil
	b.pool.Put(j)
	return verdict
}

// Close stops the dispatchers. It must only be called once every
// in-flight Classify has returned (the serving layer calls it after the
// shutdown drain); it is idempotent.
func (b *Batcher) Close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// dispatch is one shard's coalescing loop: block for a first job, drain
// whatever else is already pending within the sim-time window (up to the
// batch cap), then flush the whole batch in one pass.
func (b *Batcher) dispatch(q chan *classifyJob) {
	defer b.wg.Done()
	batch := make([]*classifyJob, 0, b.max)
	for {
		select {
		case j := <-q:
			batch = append(batch[:0], j)
		case <-b.stop:
			return
		}
	coalesce:
		for len(batch) < b.max {
			select {
			case j := <-q:
				if !b.sameWindow(batch[0], j) {
					// The newcomer's stream clock is outside the head's
					// window: flush what we have and start over with it.
					b.flush(batch)
					batch = append(batch[:0], j)
					continue
				}
				batch = append(batch, j)
			default:
				break coalesce
			}
		}
		b.flush(batch)
	}
}

// sameWindow reports whether two jobs' delta timestamps are close enough
// in sim-time to share one flush.
func (b *Batcher) sameWindow(head, j *classifyJob) bool {
	d := j.at - head.at
	if d < 0 {
		d = -d
	}
	return d <= b.window
}

// flush classifies every job in the batch and releases its caller. The
// per-job work is the same pure centroid scan as the unbatched path;
// the win is dispatch amortization, not a different computation.
func (b *Batcher) flush(batch []*classifyJob) {
	for _, j := range batch {
		j.reply <- j.m.ClassifyDenoised(j.v)
	}
	b.m.Add(mBatchFlushes, 1)
	b.m.Add(mBatchJobs, int64(len(batch)))
	b.m.Observe(mBatchOccupancy, float64(len(batch)))
	if len(batch) > 1 {
		b.m.Add(mBatchCoalesced, int64(len(batch)-1))
	}
}
