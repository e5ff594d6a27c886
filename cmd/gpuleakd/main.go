// Command gpuleakd serves the attack pipeline over HTTP/JSON: a sharded
// model registry trains per-configuration classifiers on demand
// (deduplicated, LRU-capped) and concurrent eavesdrop / train /
// experiment requests flow through bounded per-shard work queues that
// answer 429 under overload. Responses are byte-identical to the library
// path for the same request at any concurrency.
//
// Endpoints:
//
//	POST /v1/eavesdrop            {"text":"hunter2","seed":7,...}  → inference
//	POST /v1/sessions             {"text":"hunter2",...}           → streaming session
//	GET  /v1/sessions/{id}/stream                                  → SSE verdict stream
//	DELETE /v1/sessions/{id}                                       → cancel session
//	POST /v1/train                {"device":"Pixel 5",...}         → warm registry
//	POST /v1/experiment           {"id":"fig17","quick":true}      → paper artifact
//	GET  /healthz                                                  → liveness/drain
//	GET  /metrics                                                  → obs snapshot
//
// SIGINT/SIGTERM initiates graceful shutdown: new requests get 503, every
// in-flight Algorithm-1 run drains (bounded by -drain-timeout), then the
// process exits 0.
//
// With -addr "127.0.0.1:0" the kernel picks a free port; -addr-file
// publishes the bound address for scripts that start the daemon without
// hard-coding a port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpuleakd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run serves the flags in args until ctx is done, then drains: it stops
// admitting, waits for in-flight runs (bounded by -drain-timeout), closes
// the HTTP side, writes -trace-out, and returns nil.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gpuleakd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
	addrFile := fs.String("addr-file", "", "write the bound host:port to this file once listening")
	shards := fs.Int("shards", 4, "registry shards / work queues")
	cache := fs.Int("cache", 8, "trained models kept per shard (LRU beyond)")
	workers := fs.Int("queue-workers", 2, "concurrent runs per shard")
	queue := fs.Int("queue-depth", 8, "waiting requests per shard before 429")
	trainWorkers := fs.Int("train-workers", 0, "collection workers per training (0 = one per CPU)")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline cap (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	maxSessions := fs.Int("max-sessions", serve.DefaultMaxSessions, "resident streaming sessions (oldest unattached evicted beyond)")
	sessionIdle := fs.Duration("session-idle", 30*time.Second, "reap sessions not attached within this window (0 = never)")
	batchWindow := fs.Duration("batch-window", 8*time.Millisecond, "sim-time coalescing window for cross-request classification micro-batches")
	batchMax := fs.Int("batch-max", 16, "classifications per micro-batch flush (0 = batching off)")
	telemetry := fs.Bool("telemetry", false, "record deterministic trace spans for every traced request")
	traceOut := fs.String("trace-out", "", "write the recorded trace as JSONL to this file at shutdown (implies -telemetry)")
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	// -telemetry hangs a tracer off the server: requests that arrive with
	// (or mint) a trace context record their span tree under the trace's
	// own track, and -trace-out exports the merged stream at shutdown.
	var tracer *obs.Tracer
	var metrics *obs.Metrics
	if *telemetry || *traceOut != "" {
		tracer = obs.New()
		metrics = tracer.Metrics()
	} else {
		metrics = obs.NewMetrics()
	}
	parallel.ObserveWith(metrics)
	opts := serve.Options{
		Shards:          *shards,
		CachePerShard:   *cache,
		WorkersPerShard: *workers,
		QueuePerShard:   *queue,
		TrainWorkers:    *trainWorkers,
		RequestTimeout:  *reqTimeout,
		Metrics:         metrics,
		Obs:             tracer,
		MaxSessions:     *maxSessions,
		BatchWindow:     sim.Time(batchWindow.Microseconds()),
		BatchMax:        *batchMax,
	}
	if *sessionIdle > 0 {
		// The serving package is wall-clock-free by policy; the daemon
		// owns the real timer and injects it.
		idle := *sessionIdle
		opts.SessionTimer = func(reap func()) func() {
			t := time.AfterFunc(idle, reap)
			return func() { t.Stop() }
		}
	}
	srv := serve.NewServer(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	log.Printf("listening on http://%s (%d shards, %d workers + %d queued per shard)",
		ln.Addr(), *shards, *workers, *queue)

	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutdown: draining in-flight runs (bound %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	// Stop admitting first (healthz flips to draining/503), then drain
	// the work queues, then close the HTTP side.
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("shutdown: http: %v", err)
	}
	srv.Close()
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	if *traceOut != "" {
		out := obs.Flags{Path: *traceOut}
		if err := out.Write(tracer); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		log.Printf("trace: %d events written to %s", tracer.Len(), *traceOut)
	}
	log.Printf("drained cleanly")
	return nil
}
