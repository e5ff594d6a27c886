// Command gpuleakrouter fronts a fleet of gpuleakd replicas with a
// consistent-hash router: every request is routed by its model identity
// (the registry key its configuration trains), so each trained classifier
// lives on exactly one replica and the fleet's aggregate model cache
// scales with replica count instead of duplicating the working set.
//
// Membership is health-checked: a probe loop polls every replica's
// /healthz, evicts replicas past the failure threshold, readmits them
// when they recover, and treats a "draining" reply as a deliberate
// departure (the replica leaves the ring immediately but its in-flight
// streams are left alone). When the ring changes, warm model replication
// kicks in: routing keys the router has seen are re-resolved, and keys
// whose owner moved get a /v1/train fired at the new owner so the handoff
// is warm by the time real traffic follows.
//
// Streaming sessions (POST /v1/sessions + GET /v1/sessions/{id}/stream)
// survive replica loss mid-stream: replicas are deterministic — the same
// session body yields the same verdict frame sequence anywhere — so the
// router replays the session on the next owner, skips the frames the
// client already holds (byte-identical by the determinism contract), and
// splices the tail. The client sees a ": failover" SSE comment and an
// unbroken frame sequence.
//
// Endpoints mirror gpuleakd's, plus GET /healthz reports fleet state in
// the gpuleak-router/v1 schema. SIGINT/SIGTERM drains: new requests get
// 503, in-flight proxies and streams finish, then the process exits 0.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/ring"
	"gpuleak/internal/serve"
)

// routerSchema identifies the router's own /healthz wire format.
const routerSchema = "gpuleak-router/v1"

// backendHeader names the response header reporting which replica served
// (or will serve) a routed request, so a client can tell which replica
// answered.
const backendHeader = "X-Gpuleak-Backend"

// Metric-name vocabulary of the router (declared constants, matching the
// call-site discipline gpuvet enforces on the internal packages).
const (
	mReshards          = "router.reshards"
	mWarmTrains        = "router.warm_trains"
	mErrors            = "router.errors"
	mEvictions         = "router.evictions"
	mProxied           = "router.proxied"
	mFrames            = "router.frames"
	mSessionsCreated   = "router.sessions.created"
	mSessionsEvicted   = "router.sessions.evicted"
	mSessionsFailovers = "router.sessions.failovers"
	mSessionsStreamed  = "router.sessions.streamed"

	mReqEavesdrop  = "router.requests.eavesdrop"
	mReqTrain      = "router.requests.train"
	mReqExperiment = "router.requests.experiment"
	mReqSession    = "router.requests.session"
	mReqStream     = "router.requests.stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpuleakrouter: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run routes over the -backends fleet until ctx is done, then drains: it
// refuses new requests, waits for in-flight proxies and streams (bounded
// by -drain-timeout), closes the HTTP side, and returns nil.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gpuleakrouter", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (port 0 = ephemeral)")
	addrFile := fs.String("addr-file", "", "write the bound host:port to this file once listening")
	backends := fs.String("backends", "", "comma-separated gpuleakd base URLs (required)")
	probe := fs.Duration("probe", 500*time.Millisecond, "health-probe interval")
	downAfter := fs.Int("down-after", 2, "consecutive failed probes before a replica leaves the ring")
	upAfter := fs.Int("up-after", 1, "consecutive healthy probes before a replica (re)joins")
	failovers := fs.Int("failovers", 2, "max alternate replicas tried per request/stream")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		return errors.New("no -backends given")
	}

	rt := newRouter(urls, *downAfter, *upAfter, *failovers)
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
	probeCtx, stopProbes := context.WithCancel(ctx)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		rt.probeLoop(probeCtx, *probe)
	}()
	defer func() {
		stopProbes()
		<-probed
	}()
	httpSrv := &http.Server{Handler: rt.handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	log.Printf("listening on http://%s, routing %d backends: %s",
		ln.Addr(), len(urls), strings.Join(urls, ", "))

	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutdown: draining in-flight requests (bound %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	if err := rt.drain(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("shutdown: http: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}

// router is the fleet front-end: health-checked membership, the warmth
// tracker driving model re-replication, and the session replay table.
type router struct {
	ms        *ring.Membership
	client    *http.Client
	m         *obs.Metrics
	failovers int
	// maxSessions caps the session table at what the backends hold
	// together (serve.DefaultMaxSessions each). At the cap, creating a
	// session evicts the oldest never-attached one; when every resident
	// session is streaming, creation answers 429.
	maxSessions int

	mu       sync.Mutex
	inflight int
	draining bool
	idle     chan struct{}
	nextSess uint64
	sessions map[string]*routedSession
	warm     map[string]*warmEntry
}

// routedSession is the router-side replay state of one streaming
// session: the original body (enough to re-create the session on any
// replica) and how many verdict frames the client already holds.
type routedSession struct {
	id      string
	seq     uint64 // creation order: the oldest unattached is evicted first
	body    []byte
	key     string
	state   int // 0 created, 1 streaming, 2 done
	relayed int // backend frames relayed (backend SSE ids 2..relayed+1)
	// traceparent is the session's trace context, minted (or accepted)
	// at create time and re-sent to every replica the stream attaches
	// to — the failover replay keeps the original trace id.
	traceparent string
}

// warmEntry remembers a routing key the fleet has served and which
// replica currently owns it, so ring changes can re-train the model on
// the new owner before traffic arrives cold.
type warmEntry struct {
	device, app, keyboard string
	owner                 string
}

func newRouter(urls []string, downAfter, upAfter, failovers int) *router {
	rt := &router{
		ms:          ring.NewMembership(downAfter, upAfter),
		client:      &http.Client{}, // no global timeout: streams are long-lived
		m:           obs.NewMetrics(),
		failovers:   failovers,
		maxSessions: serve.DefaultMaxSessions * len(urls),
		idle:        make(chan struct{}),
		sessions:    map[string]*routedSession{},
		warm:        map[string]*warmEntry{},
	}
	for _, u := range urls {
		rt.ms.Add(u)
	}
	return rt
}

func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/eavesdrop", rt.handleEavesdrop)
	mux.HandleFunc("POST /v1/train", rt.handleTrain)
	mux.HandleFunc("POST /v1/experiment", rt.handleExperiment)
	mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", rt.handleSessionStream)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// begin/end/drain mirror gpuleakd's in-flight accounting so SIGTERM can
// wait for the streams the router is relaying.
func (rt *router) begin() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		return false
	}
	rt.inflight++
	return true
}

func (rt *router) end() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.inflight--
	if rt.draining && rt.inflight == 0 {
		close(rt.idle)
	}
}

func (rt *router) drain(ctx context.Context) error {
	rt.mu.Lock()
	if !rt.draining {
		rt.draining = true
		if rt.inflight == 0 {
			close(rt.idle)
		}
	}
	rt.mu.Unlock()
	select {
	case <-rt.idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

func (rt *router) isDraining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

// probeLoop polls every backend's /healthz at the probe interval, feeds
// the outcomes into membership, and triggers warm re-replication when
// the ring changes.
func (rt *router) probeLoop(ctx context.Context, interval time.Duration) {
	probeClient := &http.Client{Timeout: interval}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	lastEpoch := uint64(0)
	for {
		for _, st := range rt.ms.All() {
			rt.probeOne(probeClient, st.Name)
		}
		if e := rt.ms.Epoch(); e != lastEpoch {
			lastEpoch = e
			rt.reshard()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (rt *router) probeOne(c *http.Client, name string) {
	resp, err := c.Get(name + "/healthz")
	if err != nil {
		rt.ms.ReportFailure(name)
		return
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "draining" {
		rt.ms.ReportDraining(name)
		return
	}
	if resp.StatusCode == http.StatusOK {
		rt.ms.ReportSuccess(name)
		return
	}
	rt.ms.ReportFailure(name)
}

// reshard re-resolves every warm routing key after a ring change and
// fires a warm-up training at the new owner of each key that moved, so a
// failed-over or re-balanced shard serves its first request from a hot
// cache instead of paying the offline phase inline.
func (rt *router) reshard() {
	type move struct {
		key   string
		to    string
		train serve.TrainRequest
	}
	var moves []move
	rt.mu.Lock()
	for key, w := range rt.warm {
		owner, ok := rt.ms.Owner(key)
		if !ok || owner == w.owner {
			continue
		}
		w.owner = owner
		moves = append(moves, move{key, owner, serve.TrainRequest{
			Device: w.device, App: w.app, Keyboard: w.keyboard,
		}})
	}
	rt.mu.Unlock()
	sort.Slice(moves, func(i, j int) bool { return moves[i].key < moves[j].key })
	for _, mv := range moves {
		rt.m.Add(mReshards, 1)
		log.Printf("reshard: %s -> %s (warm replication)", mv.key, mv.to)
		go func(mv move) {
			body, _ := json.Marshal(mv.train)
			resp, err := rt.client.Post(mv.to+"/v1/train", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Printf("reshard: warm train on %s: %v", mv.to, err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
			resp.Body.Close()
			rt.m.Add(mWarmTrains, 1)
		}(mv)
	}
}

// recordWarm notes that key is served by owner (with the scenario fields
// a warm-up /v1/train needs later).
func (rt *router) recordWarm(key, owner string, req serve.EavesdropRequest) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	w, ok := rt.warm[key]
	if !ok {
		w = &warmEntry{device: req.Device, app: req.App, keyboard: req.Keyboard}
		rt.warm[key] = w
	}
	w.owner = owner
}

func (rt *router) writeError(w http.ResponseWriter, status int, err error) {
	rt.m.Add(mErrors, 1)
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(serve.ErrorResponse{Schema: routerSchema, Error: err.Error(), Status: status}) //nolint:errcheck
}

// owners resolves the candidate replicas for a key: the owner first,
// then failover alternates.
func (rt *router) owners(key string) []string {
	return rt.ms.Owners(key, 1+rt.failovers)
}

// traceparentFor resolves the traceparent a routed request carries
// downstream: an inbound header wins (the client owns the trace),
// otherwise the router mints one from the request seed — the identical
// derivation replicas use, so every hop agrees on the trace id without
// coordination.
func traceparentFor(r *http.Request, seed int64) string {
	if tc, ok := obs.ParseTraceparent(r.Header.Get(serve.TraceparentHeader)); ok {
		return tc.Traceparent()
	}
	return obs.NewTrace(seed).Traceparent()
}

// proxy forwards body to path on the first candidate that accepts the
// connection, evicting candidates whose transport fails. Any HTTP
// response (success or error) is relayed as-is with the serving backend
// named in the response header. A non-empty traceparent rides the
// forwarded request so the replica joins the router's trace instead of
// minting its own.
func (rt *router) proxy(w http.ResponseWriter, path string, body []byte, candidates []string, traceparent string) {
	if len(candidates) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: no replica up for key"))
		return
	}
	for _, backend := range candidates {
		req, err := http.NewRequest(http.MethodPost, backend+path, bytes.NewReader(body))
		if err != nil {
			rt.writeError(w, http.StatusInternalServerError, err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set(serve.TraceparentHeader, traceparent)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			log.Printf("proxy %s: %s unreachable, evicting: %v", path, backend, err)
			rt.ms.Evict(backend)
			rt.m.Add(mEvictions, 1)
			continue
		}
		defer resp.Body.Close()
		h := w.Header()
		h.Set(backendHeader, backend)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			h.Set("Content-Type", ct)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			h.Set("Retry-After", ra)
		}
		if tp := resp.Header.Get(serve.TraceparentHeader); tp != "" {
			h.Set(serve.TraceparentHeader, tp)
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // client gone: nothing left to report to
		rt.m.Add(mProxied, 1)
		return
	}
	rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: every candidate replica failed"))
}

func (rt *router) handleEavesdrop(w http.ResponseWriter, r *http.Request) {
	if !rt.begin() {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	defer rt.end()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req serve.EavesdropRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: decoding body: %w", err))
		return
	}
	key, err := serve.RoutingKey(req)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.m.Add(mReqEavesdrop, 1)
	cands := rt.owners(key)
	if len(cands) > 0 {
		rt.recordWarm(key, cands[0], req)
	}
	rt.proxy(w, "/v1/eavesdrop", body, cands, traceparentFor(r, req.Seed))
}

func (rt *router) handleTrain(w http.ResponseWriter, r *http.Request) {
	if !rt.begin() {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	defer rt.end()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req serve.TrainRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: decoding body: %w", err))
		return
	}
	// Training routes by the same model identity an eavesdrop for this
	// configuration would, so the warmed replica is the one that serves.
	eq := serve.EavesdropRequest{Device: req.Device, App: req.App, Keyboard: req.Keyboard, Text: "warmup"}
	key, err := serve.RoutingKey(eq)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.m.Add(mReqTrain, 1)
	cands := rt.owners(key)
	if len(cands) > 0 {
		rt.recordWarm(key, cands[0], eq)
	}
	// Training has no seed of its own; forward a trace only when the
	// client brought one.
	rt.proxy(w, "/v1/train", body, cands, r.Header.Get(serve.TraceparentHeader))
}

func (rt *router) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if !rt.begin() {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	defer rt.end()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req serve.ExperimentRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: decoding body: %w", err))
		return
	}
	rt.m.Add(mReqExperiment, 1)
	rt.proxy(w, "/v1/experiment", body, rt.owners("exp/"+req.ID), r.Header.Get(serve.TraceparentHeader))
}

func (rt *router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type backendStatus struct {
		Name  string `json:"name"`
		State string `json:"state"`
	}
	var resp struct {
		Schema   string          `json:"schema"`
		Status   string          `json:"status"`
		Up       int             `json:"up"`
		Backends []backendStatus `json:"backends"`
		Sessions int             `json:"sessions"`
	}
	resp.Schema = routerSchema
	resp.Status = "ok"
	for _, st := range rt.ms.All() {
		resp.Backends = append(resp.Backends, backendStatus{Name: st.Name, State: st.State.String()})
		if st.State == ring.StateUp {
			resp.Up++
		}
	}
	rt.mu.Lock()
	resp.Sessions = len(rt.sessions)
	rt.mu.Unlock()
	status := http.StatusOK
	switch {
	case rt.isDraining():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case resp.Up == 0:
		resp.Status = "no backends"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck // client gone mid-scrape
}

// gauges reports the router's point-in-time state alongside the counter
// snapshot: fleet size actually up, sessions awaiting/holding a stream,
// and requests in flight.
func (rt *router) gauges() map[string]float64 {
	up := 0
	for _, st := range rt.ms.All() {
		if st.State == ring.StateUp {
			up++
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return map[string]float64{
		"router.backends_up":       float64(up),
		"router.sessions.resident": float64(len(rt.sessions)),
		"router.inflight":          float64(rt.inflight),
	}
}

func (rt *router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := rt.gauges()
	switch r.URL.Query().Get("format") {
	case "", "json":
		snap := rt.m.Snapshot()
		for k, v := range g {
			snap[k] = v
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteSnapshotJSON(w, snap) //nolint:errcheck // client gone mid-scrape
	case "prom":
		w.Header().Set("Content-Type", obs.PromContentType)
		rt.m.WriteProm(w, g) //nolint:errcheck // client gone mid-scrape
	default:
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: unknown metrics format %q", r.URL.Query().Get("format")))
	}
}

// handleSessionCreate registers a streaming session with the router (the
// backend session is created lazily at attach, so a failover between
// create and attach costs nothing). The response names the predicted
// serving replica in the backend header. At maxSessions the oldest
// never-attached session is evicted; with every resident session
// streaming, the create answers 429.
func (rt *router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if rt.isDraining() {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req serve.EavesdropRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: decoding body: %w", err))
		return
	}
	key, err := serve.RoutingKey(req)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.mu.Lock()
	if len(rt.sessions) >= rt.maxSessions {
		var victim *routedSession
		for _, s := range rt.sessions {
			if s.state == 0 && (victim == nil || s.seq < victim.seq) {
				victim = s
			}
		}
		if victim == nil {
			n := len(rt.sessions)
			rt.mu.Unlock()
			rt.writeError(w, http.StatusTooManyRequests, fmt.Errorf("router: %d sessions resident, all streaming", n))
			return
		}
		delete(rt.sessions, victim.id)
		rt.m.Add(mSessionsEvicted, 1)
	}
	rt.nextSess++
	sess := &routedSession{
		id:          fmt.Sprintf("r-%08d", rt.nextSess),
		seq:         rt.nextSess,
		body:        body,
		key:         key,
		traceparent: traceparentFor(r, req.Seed),
	}
	rt.sessions[sess.id] = sess
	rt.mu.Unlock()
	rt.m.Add(mSessionsCreated, 1)
	rt.m.Add(mReqSession, 1)
	if owner, ok := rt.ms.Owner(key); ok {
		w.Header().Set(backendHeader, owner)
		rt.recordWarm(key, owner, req)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(serve.SessionResponse{ //nolint:errcheck // client gone
		Schema: routerSchema,
		ID:     sess.id,
		Stream: "/v1/sessions/" + sess.id + "/stream",
	})
}

// handleSessionStream relays a session's SSE stream from its owning
// replica, replaying on a fresh replica (and skipping already-delivered
// frames) when the owner dies mid-stream.
func (rt *router) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	sess, ok := rt.sessions[id]
	if ok && sess.state == 0 {
		sess.state = 1
	} else if ok {
		rt.mu.Unlock()
		rt.writeError(w, http.StatusConflict, fmt.Errorf("router: session %q already consumed", id))
		return
	}
	rt.mu.Unlock()
	if !ok {
		rt.writeError(w, http.StatusNotFound, fmt.Errorf("router: session %q not found", id))
		return
	}
	if !rt.begin() {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	defer rt.end()
	defer func() {
		rt.mu.Lock()
		delete(rt.sessions, id)
		rt.mu.Unlock()
	}()
	rt.m.Add(mReqStream, 1)

	flusher, _ := w.(http.Flusher)
	started := false
	attempts := 1 + rt.failovers
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		owner, ok := rt.ms.Owner(sess.key)
		if !ok {
			lastErr = errors.New("router: no replica up for session")
			break
		}
		if attempt > 0 {
			rt.m.Add(mSessionsFailovers, 1)
			// Before the client stream starts there is nothing to splice:
			// this attempt serves the whole stream, headers included.
			if started {
				fmt.Fprintf(w, ": failover to %s after %d frames\n\n", owner, sess.relayed)
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
		done, err := rt.relayOnce(r.Context(), w, flusher, sess, owner, &started)
		if done {
			rt.m.Add(mSessionsStreamed, 1)
			return
		}
		lastErr = err
		log.Printf("session %s: replica %s failed mid-stream (%d frames relayed): %v",
			id, owner, sess.relayed, err)
		rt.ms.Evict(owner)
		rt.m.Add(mEvictions, 1)
	}
	if lastErr == nil {
		lastErr = errors.New("router: session relay failed")
	}
	if !started {
		rt.writeError(w, http.StatusServiceUnavailable, lastErr)
		return
	}
	// In-band error frame: the stream already has a 200 status line.
	data, _ := json.Marshal(serve.ErrorResponse{
		Schema: routerSchema, Error: lastErr.Error(), Status: http.StatusServiceUnavailable,
	})
	fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
	if flusher != nil {
		flusher.Flush()
	}
}

// relayOnce creates the session on owner, attaches its stream, and
// relays frames the client does not hold yet. done is true when the
// stream finished (result or in-band backend error frame delivered);
// otherwise err says why the attempt died and the caller may fail over.
func (rt *router) relayOnce(ctx context.Context, w http.ResponseWriter, flusher http.Flusher, sess *routedSession, owner string, started *bool) (done bool, err error) {
	// Re-create the session on the owner. Deterministic replicas make
	// this replay safe: the new session's frames are byte-identical.
	// The session's traceparent rides every replay, so a failover
	// replica records its spans under the original trace id.
	create, err := http.NewRequest(http.MethodPost, owner+"/v1/sessions", bytes.NewReader(sess.body))
	if err != nil {
		return false, err
	}
	create.Header.Set("Content-Type", "application/json")
	if sess.traceparent != "" {
		create.Header.Set(serve.TraceparentHeader, sess.traceparent)
	}
	resp, err := rt.client.Do(create)
	if err != nil {
		return false, err
	}
	var sr serve.SessionResponse
	decErr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if decErr != nil {
		return false, decErr
	}
	if resp.StatusCode != http.StatusCreated {
		return false, fmt.Errorf("backend session create: status %d", resp.StatusCode)
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+sr.Stream, nil)
	if err != nil {
		return false, err
	}
	stream, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(stream.Body, 4096))
		return false, fmt.Errorf("backend stream: status %d: %s", stream.StatusCode, bytes.TrimSpace(body))
	}

	if !*started {
		*started = true
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-store")
		h.Set(backendHeader, owner)
		w.WriteHeader(http.StatusOK)
		// Comment frames are never relayed from the backend, so the router
		// announces the trace context itself — same ordering as a replica:
		// traceparent comment first, then the open frame.
		if sess.traceparent != "" {
			fmt.Fprintf(w, ": traceparent %s\n\n", sess.traceparent)
		}
		// The router speaks the open frame itself (the backend's carries
		// its local session id); every later frame is relayed verbatim.
		data, _ := json.Marshal(serve.SessionResponse{Schema: routerSchema, ID: sess.id})
		fmt.Fprintf(w, "id: 1\nevent: open\ndata: %s\n\n", data)
		if flusher != nil {
			flusher.Flush()
		}
	}

	relayed, done, err := relayFrames(stream.Body, frameWriter{w, flusher, rt.m}, sess.relayed)
	sess.relayed = relayed
	return done, err
}

// frameWriter is the client side of a relay: each frame written is
// flushed to the client at once and counted.
type frameWriter struct {
	w       io.Writer
	flusher http.Flusher
	m       *obs.Metrics
}

func (fw frameWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err != nil {
		return n, err
	}
	if fw.flusher != nil {
		fw.flusher.Flush()
	}
	fw.m.Add(mFrames, 1)
	return n, nil
}

// relayFrames reads a backend SSE stream from src and writes to dst, byte
// for byte and one Write per frame, each complete frame the client does
// not hold yet. The backend numbers frames from 1 (its own open frame,
// never relayed: the router speaks its own), so with relayed frames
// delivered the client holds every backend id up to relayed+1. It returns
// the new relayed count and done, true once a complete result or error
// frame was read; it stops at that frame and writes nothing after it. A
// failed dst write also ends the relay with done true and the write
// error: the client is gone, so there is nothing to fail over to.
// Otherwise err says why the backend stream broke off.
func relayFrames(src io.Reader, dst io.Writer, relayed int) (int, bool, error) {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var frame bytes.Buffer
	frameID, frameEvent := 0, ""
	for sc.Scan() {
		line := sc.Text()
		if line != "" {
			frame.WriteString(line)
			frame.WriteByte('\n')
			switch {
			case strings.HasPrefix(line, "id: "):
				frameID, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			case strings.HasPrefix(line, "event: "):
				frameEvent = strings.TrimPrefix(line, "event: ")
			}
			continue
		}
		// Blank line: the frame is complete.
		if frameEvent != "open" && frameID > relayed+1 {
			frame.WriteByte('\n')
			if _, err := dst.Write(frame.Bytes()); err != nil {
				return relayed, true, err
			}
			relayed = frameID - 1
		}
		if frameEvent == "result" || frameEvent == "error" {
			return relayed, true, nil
		}
		frame.Reset()
		frameID, frameEvent = 0, ""
	}
	if err := sc.Err(); err != nil {
		return relayed, false, err
	}
	return relayed, false, errors.New("backend stream ended without a result frame")
}
