// Package parallel is the repo's worker-pool execution engine. The
// offline phase, the experiment layer and the benchmark harness all fan
// embarrassingly parallel work — per-(key, repeat) trace collection,
// independent device/noise/volunteer configurations, whole experiments —
// through the same primitives.
//
// Determinism is the design constraint: every task is addressed by its
// index, writes only its own result slot, and derives any randomness from
// a seed that is a pure function of that index (sim.TaskSeed). Scheduling
// order therefore never leaks into results, and a run with 8 workers is
// byte-identical to a run with 1.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"gpuleak/internal/obs"
)

// poolMetrics is the pool's optional telemetry sink. Commands opt in once
// at startup with ObserveWith; the hot path loads an atomic pointer, so
// the disabled cost is one predictable branch per batch. Every recorded
// quantity is an order-independent aggregate (sums, per-worker tallies),
// never an event stream — scheduling is allowed to show up here, which is
// exactly why pool utilization lives in the metrics registry and not in
// the deterministic event stream.
var poolMetrics atomic.Pointer[obs.Metrics]

// Metric-name vocabulary of the pool (registered constants, per the
// gpuvet obsevent call-site rule).
const (
	mBatches      = "parallel.batches"
	mTasks        = "parallel.tasks"
	mBatchWorkers = "parallel.batch_workers"
	mWorkerTasks  = "parallel.worker_tasks"
	mQueueDepth   = "parallel.queue_depth"
)

// ObserveWith routes pool statistics (batches, tasks, queue depth,
// per-worker utilization) into a metrics registry; nil disables. Set it
// before fanning out work.
func ObserveWith(m *obs.Metrics) { poolMetrics.Store(m) }

// Workers resolves a worker-count knob: n > 0 selects exactly n workers,
// n <= 0 selects one worker per available CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachCtx runs fn(i) for every i in [0, n) on at most workers
// goroutines (0 = one per CPU) and blocks until all tasks finish. Tasks
// are handed out in index order but may complete in any order; fn must
// confine its writes to per-index state. All tasks run even when one
// fails, and the error of the lowest-indexed failing task is returned, so
// the outcome — results and error alike — is independent of scheduling.
//
// Cancellation is cooperative: once ctx is done, no further tasks are
// handed out (tasks already running finish). Errors of completed tasks
// keep their index-order precedence; when the batch was cut short and no
// task failed, the context's error is returned. Note that WHICH tasks ran
// after a cancellation depends on timing — the determinism contract only
// covers runs that complete.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	m := poolMetrics.Load()
	if m != nil {
		m.Add(mBatches, 1)
		m.Add(mTasks, int64(n))
		m.Observe(mBatchWorkers, float64(workers))
	}
	errs := make([]error, n)
	issued := n
	if workers == 1 {
		ran := 0
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				issued = i
				break
			}
			errs[i] = fn(i)
			ran++
		}
		if m != nil {
			m.Observe(mWorkerTasks, float64(ran))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ran := 0
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						break
					}
					if m != nil {
						// Queue depth at grab time: tasks not yet handed out.
						m.Observe(mQueueDepth, float64(n-i-1))
					}
					errs[i] = fn(i)
					ran++
				}
				if m != nil {
					// Per-worker utilization: how evenly the batch spread.
					m.Observe(mWorkerTasks, float64(ran))
				}
			}()
		}
		wg.Wait()
		// Workers stop grabbing once ctx is done, so a frozen counter below
		// n means some tasks were never issued.
		if int(next.Load()) < n {
			issued = int(next.Load())
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if issued < n {
		return ctx.Err()
	}
	return nil
}

// MapCtx runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. On failure or cancellation it
// returns the error ForEachCtx would.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
