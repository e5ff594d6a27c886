package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; an untraced run of
// every workload reports all of them. Bound is the share of the parent
// commit's median by which a metric may worsen before a change counts as
// a regression. Non-streaming ops deliver their first verdict with the
// whole result, so there ttfv equals latency.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"ttfv_p50_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.1},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
	{"rss_p50_mb", "MB", "lower", 0.1},
}

// perLayer is the ledger of a traced run. Every workload reports every
// metric; one reads 0 on a workload that never reaches its layer
// (README.md maps each metric to the workloads where it works).
var perLayer = []metricDef{
	{"input.ms_per_op", "ms", "lower", 0},
	{"victim.ms_per_op", "ms", "lower", 0},
	{"victim.share", "ratio", "lower", 0},
	{"victim.allocs_per_op", "count", "lower", 0},
	{"kgsl.reads_per_op", "count", "lower", 0},
	{"kgsl.ns_per_read", "ns", "lower", 0},
	{"kgsl.share", "ratio", "lower", 0},
	{"kgsl.allocs_per_read", "count", "lower", 0},
	{"sampler.ms_per_op", "ms", "lower", 0},
	{"engine.ms_per_op", "ms", "lower", 0},
	{"classify.calls_per_op", "count", "lower", 0},
	{"classify.ns_per_call", "ns", "lower", 0},
	{"classify.share", "ratio", "lower", 0},
	{"gc.cpu_share", "ratio", "lower", 0},
	{"gc.cycles_per_op", "count", "lower", 0},
	{"serve.handler_ms_p50", "ms", "lower", 0},
	{"serve.handler_ms_p99", "ms", "lower", 0},
	{"http.client_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ms_p50", "ms", "lower", 0},
	{"serve.admitted_per_op", "count", "higher", 0},
	{"serve.rejected_per_op", "count", "lower", 0},
	{"serve.queue_timeouts_per_op", "count", "lower", 0},
	{"registry.hit_rate", "ratio", "higher", 0},
	{"batch.jobs_per_op", "count", "lower", 0},
	{"batch.flushes_per_op", "count", "lower", 0},
	{"batch.occupancy_mean", "count", "higher", 0},
	{"sse.create_ms_p50", "ms", "lower", 0},
	{"sse.first_frame_ms_p50", "ms", "lower", 0},
	{"sse.frames_per_session", "count", "lower", 0},
	{"fault.degraded_frac", "ratio", "lower", 0},
	{"fault.retries_per_op", "count", "lower", 0},
	{"fault.dropped_ticks_per_op", "count", "lower", 0},
	{"fault.rereservations_per_op", "count", "lower", 0},
	{"fuse.recovered_per_op", "count", "higher", 0},
	{"fuse.flipped_per_op", "count", "lower", 0},
	{"offline.cpu_util", "ratio", "higher", 0},
	{"offline.allocs_per_model", "count", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"traced.latency_p50_ms", "ms", "lower", 0},
}

// sample is one timed op.
type sample struct {
	worker int
	// due is when the op was scheduled (closed loop: when it started);
	// every latency counts from it, so a stall shows as queueing.
	due time.Time
	// late is how late the open-loop generator handed the op out.
	late  time.Duration
	start time.Time // a client began the op
	sent  time.Time // its main request left the client
	first time.Time // the client held a first verdict (zero: at done)
	done  time.Time
	// frames counts the SSE frames of a streamed session.
	frames int
	res    result
	err    error
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

func (s *sample) ttfv() time.Duration {
	if s.first.IsZero() {
		return s.latency()
	}
	return s.first.Sub(s.due)
}

// openLoop sends n ops at a fixed rate over conns connections,
// regardless of how fast earlier ops complete. An op waiting for a free
// connection is queueing at the client, and its latency counts it.
func openLoop(ctx context.Context, n int, rate float64, do func(context.Context, int, *sample)) []sample {
	samples := make([]sample, n)
	jobs := make(chan int, n) // sized to every op, so the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				s := &samples[i]
				s.worker, s.start = w, time.Now()
				do(ctx, i, s)
				s.done = time.Now()
			}
		}(w)
	}
	start := time.Now()
	for i := range samples {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		samples[i].due = due
		samples[i].late = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// closedLoop runs n ops back to back on one client.
func closedLoop(ctx context.Context, n int, do func(context.Context, int, *sample)) []sample {
	samples := make([]sample, n)
	for i := range samples {
		s := &samples[i]
		s.due = time.Now()
		s.start = s.due
		do(ctx, i, s)
		s.done = time.Now()
	}
	return samples
}

// snapshot is the process's resource counters at one instant.
type snapshot struct {
	at             time.Time
	cpu            time.Duration // user + system
	mallocs, bytes uint64
	gcCPU          float64 // seconds
	gcCycles       uint64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for an invalid who argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rs)
	return snapshot{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    rs[0].Value.Float64(),
		gcCycles: rs[1].Value.Uint64(),
	}
}

// mallocs is the process's cumulative count of heap allocations. It
// stops the world to flush every per-P cache, which is what makes a
// small difference of two readings exact.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := (p*len(sorted) + 99) / 100
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n, p int) int { return n - (p*n+99)/100 }

// tailPercentile is the highest reported percentile (99, 90 or 50) with
// at least ten samples beyond it, or 0 when not even the median has.
func tailPercentile(n int) int {
	for _, p := range []int{99, 90, 50} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS returns the durations of the successful samples in
// milliseconds, sorted.
func durationsMS(samples []sample, d func(*sample) time.Duration) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].err == nil {
			out = append(out, ms(d(&samples[i])))
		}
	}
	sort.Float64s(out)
	return out
}

// endToEndMetrics computes every endToEnd metric of one timed phase.
func endToEndMetrics(samples []sample, setups, rss []float64, before, after snapshot) map[string]float64 {
	lat := durationsMS(samples, (*sample).latency)
	ttfv := durationsMS(samples, (*sample).ttfv)
	ops := float64(len(samples))
	return map[string]float64{
		"setup_s":          median(setups),
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p90_ms":   percentile(lat, 90),
		"ttfv_p50_ms":      percentile(ttfv, 50),
		"throughput_ops_s": float64(len(lat)) / after.at.Sub(before.at).Seconds(),
		"cpu_ms_per_op":    ms(after.cpu-before.cpu) / ops,
		"allocs_per_op":    float64(after.mallocs-before.mallocs) / ops,
		"alloc_mb_per_op":  float64(after.bytes-before.bytes) / ops / (1 << 20),
		"rss_p50_mb":       median(rss),
	}
}

// phase is one timed phase: its ops and the process counters around it.
type phase struct {
	samples       []sample
	before, after snapshot
}

// sampleRSS samples the process's resident set every 50 ms until the
// returned stop is called; stop returns the samples in MB.
func sampleRSS() (stop func() ([]float64, error)) {
	done := make(chan struct{})
	var samples []float64
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			var mb float64
			if mb, err = rssMB(); err != nil {
				return
			}
			samples = append(samples, mb)
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]float64, error) {
		close(done)
		wg.Wait()
		return samples, err
	}
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading the resident set size: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("malformed /proc/self/statm %q: %w", b, err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// commonLayers fills the ledger entries every workload measures the same
// way: garbage collection, the load generator, and the fault and fusion
// accounting the results carry.
func commonLayers(p phase, m map[string]float64) {
	samples, before, after := p.samples, p.before, p.after
	ops := float64(len(samples))
	if cpu := (after.cpu - before.cpu).Seconds(); cpu > 0 {
		m["gc.cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	m["gc.cycles_per_op"] = float64(after.gcCycles-before.gcCycles) / ops
	m["loadgen.late_p99_ms"] = percentile(durationsMS(samples, func(s *sample) time.Duration { return s.late }), 99)
	m["traced.latency_p50_ms"] = percentile(durationsMS(samples, (*sample).latency), 50)
	for _, s := range samples {
		r := s.res
		if r.Degraded {
			m["fault.degraded_frac"] += 1 / ops
		}
		if r.Recovery != nil {
			m["fault.retries_per_op"] += float64(r.Recovery.Retries) / ops
			m["fault.dropped_ticks_per_op"] += float64(r.Recovery.DroppedTicks) / ops
			m["fault.rereservations_per_op"] += float64(r.Recovery.ReReservations) / ops
		}
		if r.Fusion != nil {
			m["fuse.recovered_per_op"] += float64(r.Fusion.Recovered) / ops
			m["fuse.flipped_per_op"] += float64(r.Fusion.Flipped) / ops
		}
	}
}
