package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/exp"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// Sentinels of the serving layer; the facade re-exports them so clients
// never import this package.
var (
	// ErrBusy reports a full per-shard work queue: the request was
	// rejected with 429 instead of queueing unboundedly. Retry after the
	// Retry-After hint.
	ErrBusy = errors.New("serve: shard work queue full")
	// ErrBadRequest reports an unresolvable request (unknown device, app,
	// keyboard, empty text, bad volunteer index).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrDraining reports a request received after shutdown began.
	ErrDraining = errors.New("serve: server draining")
)

// retryAfterSeconds is the constant Retry-After hint on 429/503 replies.
// A constant (rather than a queue-derived estimate) keeps the package
// free of wall-clock reads; clients treat it as a floor, not a promise.
const retryAfterSeconds = "1"

// trainRepeats is the offline phase's per-key repeat count for on-miss
// training, matching the experiment layer's model cache. It is fixed, not
// an option: a replica training with another count would serve a
// different model under the same routing key, and the router's failover
// replay assumes every replica serves the same bytes.
const trainRepeats = 2

// DefaultMaxSessions is Options.MaxSessions' default: the resident
// streaming sessions one server holds.
const DefaultMaxSessions = 64

// Options tunes a Server. The zero value serves with 4 shards, 8 models
// per shard, 2 workers + 8 waiters per shard queue, and no server-side
// request timeout.
type Options struct {
	// Shards is the number of registry shards and work queues.
	Shards int
	// CachePerShard caps resident trained models per shard (LRU beyond).
	CachePerShard int
	// WorkersPerShard bounds how many requests of one shard execute
	// concurrently.
	WorkersPerShard int
	// QueuePerShard bounds how many admitted requests may wait per shard;
	// admission beyond workers+queue is rejected with 429 + Retry-After.
	QueuePerShard int
	// TrainWorkers is the collection worker count for on-miss training
	// (0 = one per CPU). Never part of the model identity: models are
	// byte-identical at any worker count.
	TrainWorkers int
	// RequestTimeout caps every request's deadline; clients may only
	// shorten it (timeout_ms). Zero means no server-side cap.
	RequestTimeout time.Duration
	// Metrics receives serving counters and registry statistics; nil
	// inherits Obs's registry when a tracer is set, else allocates a
	// fresh one (exposed at /metrics either way).
	Metrics *obs.Metrics
	// Obs, when non-nil, records per-request trace spans: every request
	// gets a child tracer on its trace's track ("trace/<trace-id>"), so
	// filtering an exported stream by track yields exactly one request's
	// trace. Nil disables span recording; RED metrics still flow.
	Obs *obs.Tracer
	// MaxSessions caps resident streaming sessions (default
	// DefaultMaxSessions). At the cap, creating a session evicts the
	// oldest never-attached one; when every resident session is actively
	// streaming, creation answers 429.
	MaxSessions int
	// SessionTimer, when non-nil, arms an idle timer per created session:
	// it must schedule reap to run once after the daemon's idle deadline
	// and return a stop function. The hook keeps wall-clock ownership in
	// cmd/gpuleakd — this package stays simtime-clean. Nil disables idle
	// reaping (the MaxSessions eviction policy still bounds state).
	SessionTimer func(reap func()) (stop func())
	// BatchWindow is the micro-batcher's sim-time coalescing window: only
	// pending classifications whose delta timestamps lie within it may
	// share one flush. Meaningful only with BatchMax > 0.
	BatchWindow sim.Time
	// BatchMax caps one micro-batch flush; 0 disables cross-request
	// batching entirely (every request classifies inline).
	BatchMax int
}

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 4
	}
	if o.CachePerShard < 1 {
		o.CachePerShard = 8
	}
	if o.WorkersPerShard < 1 {
		o.WorkersPerShard = 2
	}
	if o.QueuePerShard < 1 {
		o.QueuePerShard = 8
	}
	if o.Metrics == nil {
		if o.Obs != nil {
			o.Metrics = o.Obs.Metrics()
		} else {
			o.Metrics = obs.NewMetrics()
		}
	}
	if o.MaxSessions < 1 {
		o.MaxSessions = DefaultMaxSessions
	}
	return o
}

// workShard is one bounded work queue. admit caps the total number of
// requests in the system for this shard (executing + waiting); run caps
// concurrent execution. Admission is non-blocking — a full admit channel
// is the 429 signal — while the run slot is awaited under the request's
// context, so a queued request either runs or times out, never hangs.
type workShard struct {
	admit chan struct{}
	run   chan struct{}
}

// Server is the HTTP serving layer: a model registry, per-shard bounded
// work queues, and the /v1 endpoints. Create with NewServer, expose with
// Handler, stop with Shutdown (drains in-flight runs).
type Server struct {
	opts     Options
	reg      *Registry
	work     []*workShard
	mux      *http.ServeMux
	m        *obs.Metrics
	sessions *sessionTable
	batcher  *Batcher // nil when Options.BatchMax == 0
	// shardGauge holds the precomputed per-shard queue-depth gauge names
	// ("serve.shard<i>.queued"), so /metrics scrapes never format strings.
	shardGauge []string

	mu       sync.Mutex
	inflight int
	draining bool
	idle     chan struct{} // closed when draining and inflight == 0
}

// NewServer builds a serving layer over the attack pipeline.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		m:        opts.Metrics,
		mux:      http.NewServeMux(),
		idle:     make(chan struct{}),
		sessions: newSessionTable(opts.MaxSessions),
	}
	if opts.BatchMax > 0 {
		s.batcher = NewBatcher(opts.Shards, opts.BatchWindow, opts.BatchMax, opts.Metrics)
	}
	s.reg = NewRegistry(opts.Shards, opts.CachePerShard, func(ctx context.Context, cfg victim.Config, ch string) (*attack.Model, error) {
		return attack.CollectContext(ctx, cfg, attack.CollectOptions{
			Repeats: trainRepeats,
			Workers: opts.TrainWorkers,
			Channel: ch,
		})
	}, opts.Metrics)
	for i := 0; i < opts.Shards; i++ {
		s.work = append(s.work, &workShard{
			admit: make(chan struct{}, opts.WorkersPerShard+opts.QueuePerShard),
			run:   make(chan struct{}, opts.WorkersPerShard),
		})
		s.shardGauge = append(s.shardGauge, fmt.Sprintf("serve.shard%d.queued", i))
	}
	s.mux.HandleFunc("POST /v1/eavesdrop", s.handleEavesdrop)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleSessionStream)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/train", s.handleTrain)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Registry exposes the server's model registry (for warm-up and tests).
func (s *Server) Registry() *Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// begin admits one request into the in-flight set; it fails once Shutdown
// has been called.
func (s *Server) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.inflight++
	return nil
}

// end retires one request and signals Shutdown when the last one drains.
func (s *Server) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.idle)
	}
}

// Shutdown stops admitting requests and blocks until every in-flight
// Algorithm-1 run has drained, or ctx expires. It is idempotent only in
// the sense that the first call wins; serve it once from the signal path.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.inflight == 0 {
			close(s.idle)
		}
	}
	s.mu.Unlock()
	// Unattached sessions will never run: drop them now so their idle
	// timers stop. Attached streams are in the in-flight count and drain
	// like any other request.
	s.sessions.clear()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Close releases the server's background resources (the micro-batch
// dispatchers). Call it after a clean Shutdown — it assumes no Classify
// call is still in flight.
func (s *Server) Close() {
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// Draining reports whether Shutdown has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Inflight reports the number of requests currently admitted.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// do runs fn through shard's bounded work queue under the request's
// context. The queue never blocks admission: a full shard answers ErrBusy
// immediately, and an admitted request waits for an execution slot only
// as long as its context lives.
func (s *Server) do(ctx context.Context, shard int, fn func(context.Context) error) error {
	ws := s.work[shard]
	select {
	case ws.admit <- struct{}{}:
	default:
		s.m.Add(mRejected, 1)
		return fmt.Errorf("shard %d (%d in system): %w", shard, cap(ws.admit), ErrBusy)
	}
	defer func() { <-ws.admit }()
	s.m.Add(mAdmitted, 1)
	select {
	case ws.run <- struct{}{}:
	case <-ctx.Done():
		s.m.Add(mQueueTimeouts, 1)
		return fmt.Errorf("serve: queued on shard %d: %w", shard, ctx.Err())
	}
	defer func() { <-ws.run }()
	return fn(ctx)
}

// requestContext applies the server cap and the client hint (whichever is
// smaller) to the request context.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := s.opts.RequestTimeout
	if timeoutMS > 0 {
		if c := time.Duration(timeoutMS) * time.Millisecond; d == 0 || c < d {
			d = c
		}
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// statusFor maps the error taxonomy onto HTTP statuses. A retryable
// sampling failure (the device plane was faulting harder than the retry
// policy could absorb) answers 503 + Retry-After — the device may
// recover — while non-retryable sampling failures fall through to their
// driver sentinel (EPERM → 403: an active mitigation, not a transient).
func statusFor(err error) int {
	var se *attack.SampleError
	switch {
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, channel.ErrUnknownChannel):
		return http.StatusBadRequest
	case errors.Is(err, defense.ErrUnknownDefense), errors.Is(err, defense.ErrStrength):
		return http.StatusBadRequest
	case errors.Is(err, ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionConsumed):
		return http.StatusConflict
	case errors.Is(err, exp.ErrUnknownExperiment):
		return http.StatusNotFound
	case errors.Is(err, attack.ErrModelNotTrained):
		return http.StatusPreconditionFailed
	case errors.As(err, &se) && se.Retryable():
		return http.StatusServiceUnavailable
	case errors.Is(err, kgsl.ErrPerm), errors.Is(err, kgsl.ErrDeviceAccess):
		// A mitigated device refused the counter interface (§9).
		return http.StatusForbidden
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing left to report to
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	s.m.Add(mErrors, 1)
	writeJSON(w, status, ErrorResponse{Schema: Schema, Error: err.Error(), Status: status})
}

func decode[T any](r *http.Request, into *T) error {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		return fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err)
	}
	return nil
}

// handleEavesdrop serves POST /v1/eavesdrop: resolve the scenario, fetch
// (or train) the model, simulate the victim session, and run the online
// phase — the exact pipeline of the facade quick start, so the response
// is byte-identical to the library path for the same request.
func (s *Server) handleEavesdrop(w http.ResponseWriter, r *http.Request) {
	var req EavesdropRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, mErrorsEavesdrop, err)
		return
	}
	scen, err := ResolveScenario(req)
	if err != nil {
		s.failRequest(w, mErrorsEavesdrop, err)
		return
	}
	if err := s.begin(); err != nil {
		s.failRequest(w, mErrorsEavesdrop, err)
		return
	}
	defer s.end()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	tc := traceFor(r, req.Seed)
	ctx = obs.WithTraceContext(ctx, tc)

	var resp EavesdropResponse
	err = s.do(ctx, s.reg.ShardFor(ChannelKey(TrainConfig(scen.Cfg), scen.Primary())), func(ctx context.Context) error {
		var err error
		resp, err = s.runEavesdrop(ctx, scen, req, nil, mLatencyEavesdrop)
		return err
	})
	if err != nil {
		s.failRequest(w, mErrorsEavesdrop, err)
		return
	}
	s.m.Add(mEavesdrops, 1)
	w.Header().Set(TraceparentHeader, tc.Local().Traceparent())
	writeJSON(w, http.StatusOK, resp)
}

// runEavesdrop is the one eavesdropping pipeline behind both the one-shot
// endpoint and streaming sessions: fetch (or train) each requested
// channel's model, simulate the victim session, arm the defense, and run
// the attack.Pipeline the request describes, forwarding engine events to
// emit when non-nil; any failure fails the request. Sharing the
// implementation is what makes a session's closing "result" frame
// byte-identical (modulo JSON indentation) to the /v1/eavesdrop body for
// the same request. Callers
// hold a work-queue slot (s.do) for the model's shard and attach the
// request's trace context to ctx; latMetric names the RED latency
// histogram the run observes into on success ("" skips it).
//
// When Options.Obs is set, the run records onto the trace's own track:
// a router-hop instant if the context arrived over the wire, the
// request span (0 → session end), the queue-admit instant, one instant
// per micro-batched classification, and — through the pipeline's tracer
// on the primary leg — the fault, sampler and verdict events. Every
// event is emitted from this goroutine, so a trace's events are in
// creation order and the exported stream, filtered to one track, is
// byte-identical at any worker count.
func (s *Server) runEavesdrop(ctx context.Context, scen Scenario, req EavesdropRequest, emit func(attack.StreamEvent) error, latMetric string) (EavesdropResponse, error) {
	trainCfg := TrainConfig(scen.Cfg)
	shard := s.reg.ShardFor(ChannelKey(trainCfg, scen.Primary()))
	tc, traced := obs.TraceContextFrom(ctx)
	var tr *obs.Tracer
	var span *obs.Span
	var reqTC obs.TraceContext
	if traced && s.opts.Obs.Enabled() {
		tr = s.opts.Obs.Child(tc.Track())
		if tc.Remote {
			tr.Emit(0, evRouterHop, tc.Fields()...)
			tc = tc.Local()
		}
		reqTC = tc.Child(evRequest, 0)
		span = tr.Start(0, evRequest, reqTC.Fields()...)
		admitTC := reqTC.Child(evQueueAdmit, 0)
		tr.Emit(0, evQueueAdmit, append(admitTC.Fields(), obs.Int("shard", shard))...)
	}
	endAt := sim.Time(0)
	defer func() { span.End(endAt) }()
	names := scen.Channels
	if len(names) == 0 {
		names = []string{channel.DefaultName}
	}
	p := attack.Pipeline{Fault: scen.Fault, FaultSeed: scen.FaultSeed, Obs: tr}
	for _, name := range names {
		m, err := s.model(ctx, req.PretrainedOnly, trainCfg, channel.Canonical(name))
		if err != nil {
			return EavesdropResponse{}, err
		}
		p.Legs = append(p.Legs, attack.Leg{Channel: name, Model: m})
	}
	sess := victim.New(scen.Cfg)
	sess.Run(scen.Script())
	endAt = sess.End
	if scen.Defense != nil {
		// Device hooks install on the session before any probe opens.
		inst, err := scen.Defense.Arm(sess, scen.DefenseStrength, scen.DefenseSeed)
		if err != nil {
			return EavesdropResponse{}, err
		}
		p.Defense = inst
	}
	if s.batcher != nil {
		// Route per-delta classification through the model shard's
		// micro-batch queue. Verdicts are unchanged (the batcher's identity
		// contract); only the dispatch is shared. The trace instant is
		// emitted here — the request goroutine — never by the dispatcher,
		// and carries no batch-composition fields, so traces stay
		// byte-identical however requests happen to coalesce.
		p.Classify = func(m *attack.Model, at sim.Time, v trace.Vec) attack.Verdict {
			verdict := s.batcher.Classify(shard, m, at, v)
			if tr.Enabled() {
				btc := reqTC.Child(evBatchClassify, at)
				tr.Emit(at, evBatchClassify, append(btc.Fields(), obs.Int("shard", shard))...)
			}
			return verdict
		}
	}
	out, err := p.Run(ctx, sess, 0, sess.End, emit)
	if err != nil {
		return EavesdropResponse{}, err
	}
	res := out.Result
	if latMetric != "" {
		exemplarTrace := ""
		if traced {
			exemplarTrace = tc.TraceID
		}
		s.m.ObserveExemplar(latMetric, float64(sess.End)/float64(sim.Millisecond), exemplarTrace)
	}
	resp := EavesdropResponse{
		Schema:          Schema,
		Model:           res.Model.String(),
		Text:            res.Text,
		Truth:           sess.TypedText(),
		Keys:            len(res.Keys),
		EstimatedLength: res.EstimatedLength,
		Stats:           res.Stats,
		Degraded:        res.Degraded,
		Channel:         scen.Primary(),
	}
	if res.Degraded {
		rec := res.Recovery
		resp.Recovery = &rec
	}
	if fr := out.Fusion; fr != nil {
		resp.Fusion = &FusionInfo{
			Channels:      append([]string(nil), scen.Channels...),
			PrimaryText:   fr.Primary.Text,
			SecondaryText: fr.Secondary.Text,
			Recovered:     fr.Recovered,
			Flipped:       fr.Flipped,
		}
	}
	return resp, nil
}

// model fetches the classifier for one channel of a request: a registry
// lookup when the request refuses on-miss training, a (possibly training)
// fetch otherwise.
func (s *Server) model(ctx context.Context, pretrainedOnly bool, cfg victim.Config, ch string) (*attack.Model, error) {
	if pretrainedOnly {
		return s.reg.LookupChannel(cfg, ch)
	}
	return s.reg.GetChannel(ctx, cfg, ch)
}

// handleTrain serves POST /v1/train: warm the registry for a
// configuration. Reports whether the model was already resident.
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, mErrorsTrain, err)
		return
	}
	scen, err := ResolveScenario(EavesdropRequest{
		Device: req.Device, App: req.App, Keyboard: req.Keyboard,
		Channel: req.Channel,
		Text:    "warmup", // unused by training; satisfies scenario validation
	})
	if err != nil {
		s.failRequest(w, mErrorsTrain, err)
		return
	}
	if err := s.begin(); err != nil {
		s.failRequest(w, mErrorsTrain, err)
		return
	}
	defer s.end()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	var resp TrainResponse
	trainCfg := TrainConfig(scen.Cfg)
	chTag := scen.Primary()
	err = s.do(ctx, s.reg.ShardFor(ChannelKey(trainCfg, chTag)), func(ctx context.Context) error {
		_, cachedErr := s.reg.LookupChannel(trainCfg, chTag)
		m, err := s.reg.GetChannel(ctx, trainCfg, chTag)
		if err != nil {
			return err
		}
		resp = TrainResponse{
			Schema: Schema,
			Model:  ChannelKey(trainCfg, chTag),
			Keys:   len(m.Keys),
			Noise:  len(m.Noise),
			Cached: cachedErr == nil,
		}
		return nil
	})
	if err != nil {
		s.failRequest(w, mErrorsTrain, err)
		return
	}
	s.m.Add(mTrains, 1)
	writeJSON(w, http.StatusOK, resp)
}

// handleExperiment serves POST /v1/experiment: run one paper table or
// figure through the experiment registry.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, mErrorsExperiment, err)
		return
	}
	if req.ID == "" {
		s.failRequest(w, mErrorsExperiment, fmt.Errorf("%w: empty experiment id", ErrBadRequest))
		return
	}
	if err := s.begin(); err != nil {
		s.failRequest(w, mErrorsExperiment, err)
		return
	}
	defer s.end()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	var resp ExperimentResponse
	err := s.do(ctx, s.reg.ShardFor("exp/"+req.ID), func(ctx context.Context) error {
		res, err := exp.Run(req.ID, exp.Options{
			Quick: req.Quick, Seed: req.Seed,
			Workers: s.opts.TrainWorkers, Ctx: ctx,
		})
		if err != nil {
			return err
		}
		resp = ExperimentResponse{
			Schema: Schema, ID: res.ID,
			Table: res.Table.String(), Metrics: res.Metrics,
		}
		return nil
	})
	if err != nil {
		s.failRequest(w, mErrorsExperiment, err)
		return
	}
	s.m.Add(mExperiments, 1)
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once
// draining, with registry and queue statistics either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	models, training := s.reg.Stats()
	resident, _ := s.sessions.stats()
	resp := HealthResponse{
		Schema:   Schema,
		Status:   "ok",
		Models:   models,
		Training: training,
		Inflight: s.Inflight(),
		Shards:   s.reg.Shards(),
		Sessions: resident,
		Channels: channel.Names(),
		Defenses: defense.Names(),
	}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves GET /metrics in two negotiated renderings of the
// same state: the default (or ?format=json) sorted-key JSON snapshot
// with the serving gauges folded in (byte-stable for identical states),
// and ?format=prom, the Prometheus text exposition with trace-id
// exemplars on histogram buckets. Both carry an explicit Content-Type;
// any other format answers 400.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.Add(mMetricScrapes, 1)
	gauges := s.gauges()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		snap := s.m.Snapshot()
		for k, v := range gauges {
			snap[k] = v
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteSnapshotJSON(w, snap) //nolint:errcheck // client gone mid-scrape
	case "prom":
		w.Header().Set("Content-Type", obs.PromContentType)
		s.m.WriteProm(w, gauges) //nolint:errcheck // client gone mid-scrape
	default:
		s.writeError(w, fmt.Errorf("%w: unknown metrics format %q", ErrBadRequest, format))
	}
}

// gauges reads the point-in-time serving state /metrics folds in next to
// the monotonic registry: registry residency, in-flight and session
// counts, and each shard's queued-request depth.
func (s *Server) gauges() map[string]float64 {
	models, training := s.reg.Stats()
	resident, streaming := s.sessions.stats()
	g := map[string]float64{
		"registry.models_resident": float64(models),
		"registry.training":        float64(training),
		"registry.evictions":       float64(Evictions()),
		"serve.inflight":           float64(s.Inflight()),
		"serve.sessions.resident":  float64(resident),
		"serve.sessions.streaming": float64(streaming),
	}
	for i, ws := range s.work {
		g[s.shardGauge[i]] = float64(len(ws.admit))
	}
	return g
}
