package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/ring"
)

// routerSchema identifies the router's own /healthz wire format.
const routerSchema = "gpuleak-router/v1"

// BackendHeader names the response header reporting which replica served
// (or will serve) a routed request, so a client can tell which replica
// answered.
const BackendHeader = "X-Gpuleak-Backend"

// errRouterDraining answers every request the router's gate refuses.
var errRouterDraining = errors.New("router: draining")

// Router fronts a fleet of Server replicas with a consistent-hash router:
// every request is routed by its model identity (RoutingKey, the registry
// key its configuration trains), so each trained classifier lives on
// exactly one replica and the fleet's aggregate model cache scales with
// replica count instead of duplicating the working set.
//
// Membership is health-checked: each Probe round polls every replica's
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
// Endpoints mirror Server's but for DELETE /v1/sessions/{id}, and
// GET /healthz reports fleet state in the gpuleak-router/v1 schema.
// Shutdown drains: new requests get 503, in-flight proxies and streams
// finish.
type Router struct {
	ms        *ring.Membership
	client    *http.Client
	m         *obs.Metrics
	mux       *http.ServeMux
	failovers int
	gate      *gate
	// sessions is the replay table. Its cap is what the backends hold
	// together (DefaultMaxSessions each): at the cap, creating a session
	// evicts the oldest never-attached one; when every resident session
	// is streaming, creation answers 429.
	sessions *sessionTable[routedSession]

	mu        sync.Mutex
	lastEpoch uint64 // the ring epoch the last Probe round resharded at
	warm      map[string]*warmEntry
}

// routedSession is the router-side replay state of one streaming
// session: the original body (enough to re-create the session on any
// replica) and how many verdict frames the client already holds.
type routedSession struct {
	body    []byte
	key     string
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
	train TrainRequest // the warm-up /v1/train body
	owner string
}

// NewRouter builds a router over the backend base URLs. Every backend
// starts down and joins the ring after upAfter healthy probes; it leaves
// after downAfter failed ones. A request or stream tries at most
// failovers alternates after its owner.
func NewRouter(backends []string, downAfter, upAfter, failovers int) *Router {
	rt := &Router{
		ms:        ring.NewMembership(downAfter, upAfter),
		client:    &http.Client{}, // no global timeout: streams are long-lived
		m:         obs.NewMetrics(),
		mux:       http.NewServeMux(),
		failovers: failovers,
		gate:      newGate(),
		sessions:  newSessionTable[routedSession]("r-", DefaultMaxSessions*len(backends)),
		warm:      map[string]*warmEntry{},
	}
	for _, u := range backends {
		rt.ms.Add(u)
	}
	rt.mux.HandleFunc("POST /v1/eavesdrop", rt.handleEavesdrop)
	rt.mux.HandleFunc("POST /v1/train", rt.handleTrain)
	rt.mux.HandleFunc("POST /v1/experiment", rt.handleExperiment)
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	rt.mux.HandleFunc("GET /v1/sessions/{id}/stream", rt.handleSessionStream)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Shutdown stops admitting requests and blocks until every in-flight
// proxy and stream has finished, or ctx expires. Sessions not yet
// attached stay resident; their attaches answer 503.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.gate.close()
	if err := rt.gate.wait(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// Probe runs one probe round: it polls every backend's /healthz, each
// within timeout, feeds the outcomes into membership, and triggers warm
// re-replication when the ring changed since the last round. The daemon
// calls it at every tick of its probe interval.
func (rt *Router) Probe(timeout time.Duration) {
	c := &http.Client{Timeout: timeout}
	for _, st := range rt.ms.All() {
		rt.probeOne(c, st.Name)
	}
	e := rt.ms.Epoch()
	rt.mu.Lock()
	changed := e != rt.lastEpoch
	rt.lastEpoch = e
	rt.mu.Unlock()
	if changed {
		rt.reshard()
	}
}

func (rt *Router) probeOne(c *http.Client, name string) {
	resp, err := c.Get(name + "/healthz")
	if err != nil {
		rt.ms.ReportFailure(name)
		return
	}
	defer resp.Body.Close()
	var h HealthResponse
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
// cache instead of paying the offline phase inline. router.warm_trains
// counts the trainings a replica answered 200.
func (rt *Router) reshard() {
	type move struct {
		key   string
		to    string
		train TrainRequest
	}
	var moves []move
	rt.mu.Lock()
	for key, w := range rt.warm {
		owner, ok := rt.ms.Owner(key)
		if !ok || owner == w.owner {
			continue
		}
		w.owner = owner
		moves = append(moves, move{key, owner, w.train})
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
			if resp.StatusCode == http.StatusOK {
				rt.m.Add(mWarmTrains, 1)
			}
		}(mv)
	}
}

// place resolves the candidate replicas for key, the owner first and then
// the failover alternates, and notes that the owner now serves key's
// model (with the scenario fields a warm-up /v1/train needs later).
func (rt *Router) place(key string, req EavesdropRequest) []string {
	cands := rt.ms.Owners(key, 1+rt.failovers)
	if len(cands) == 0 {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	w, ok := rt.warm[key]
	if !ok {
		// The warm-up trains the key's own model: the primary channel's,
		// picked as ResolveScenario picks it.
		ch := req.Channel
		if len(req.Channels) > 0 {
			ch = req.Channels[0]
		}
		w = &warmEntry{train: TrainRequest{Device: req.Device, App: req.App, Keyboard: req.Keyboard, Channel: ch}}
		rt.warm[key] = w
	}
	w.owner = cands[0]
	return cands
}

func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	rt.m.Add(mRouterErrors, 1)
	writeErrorJSON(w, routerSchema, status, err)
}

// admit enters the router's gate, answering 503 once draining has begun.
func (rt *Router) admit(w http.ResponseWriter) bool {
	if rt.gate.enter() {
		return true
	}
	rt.writeError(w, http.StatusServiceUnavailable, errRouterDraining)
	return false
}

// readBody reads r's body for forwarding and decodes it into req,
// answering 400 itself when either fails.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, req any) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	if err := json.Unmarshal(body, req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: decoding body: %w", err))
		return nil, false
	}
	return body, true
}

// post sends body as JSON to url under ctx, with traceparent when it is
// not empty.
func (rt *Router) post(ctx context.Context, url string, body []byte, traceparent string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(TraceparentHeader, traceparent)
	}
	return rt.client.Do(req)
}

// proxy forwards body to path on the first candidate that accepts the
// connection, evicting candidates whose transport fails. Any HTTP
// response (success or error) is relayed as-is with the serving backend
// named in the response header. A non-empty traceparent rides the
// forwarded request so the replica joins the router's trace instead of
// minting its own. The forwarded request carries r's context, so a
// client that hangs up cancels the replica's run too.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, path string, body []byte, candidates []string, traceparent string) {
	if len(candidates) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: no replica up for key"))
		return
	}
	for _, backend := range candidates {
		resp, err := rt.post(r.Context(), backend+path, body, traceparent)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client hung up: no replica to blame, nobody to answer
			}
			log.Printf("proxy %s: %s unreachable, evicting: %v", path, backend, err)
			rt.ms.Evict(backend)
			rt.m.Add(mEvictions, 1)
			continue
		}
		defer resp.Body.Close()
		h := w.Header()
		h.Set(BackendHeader, backend)
		for _, k := range []string{"Content-Type", "Retry-After", TraceparentHeader} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // client gone: nothing left to report to
		rt.m.Add(mProxied, 1)
		return
	}
	rt.writeError(w, http.StatusServiceUnavailable, errors.New("router: every candidate replica failed"))
}

func (rt *Router) handleEavesdrop(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w) {
		return
	}
	defer rt.gate.leave()
	var req EavesdropRequest
	body, ok := rt.readBody(w, r, &req)
	if !ok {
		return
	}
	key, err := RoutingKey(req)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.m.Add(mReqEavesdrop, 1)
	rt.proxy(w, r, "/v1/eavesdrop", body, rt.place(key, req), traceFor(r, req.Seed).Traceparent())
}

func (rt *Router) handleTrain(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w) {
		return
	}
	defer rt.gate.leave()
	var req TrainRequest
	body, ok := rt.readBody(w, r, &req)
	if !ok {
		return
	}
	// Training routes by the same model identity an eavesdrop for this
	// configuration would, so the warmed replica is the one that serves.
	eq := EavesdropRequest{Device: req.Device, App: req.App, Keyboard: req.Keyboard, Channel: req.Channel, Text: "warmup"}
	key, err := RoutingKey(eq)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.m.Add(mReqTrain, 1)
	// Training has no seed of its own; forward a trace only when the
	// client brought one.
	rt.proxy(w, r, "/v1/train", body, rt.place(key, eq), r.Header.Get(TraceparentHeader))
}

func (rt *Router) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w) {
		return
	}
	defer rt.gate.leave()
	var req ExperimentRequest
	body, ok := rt.readBody(w, r, &req)
	if !ok {
		return
	}
	rt.m.Add(mReqExperiment, 1)
	rt.proxy(w, r, "/v1/experiment", body, rt.ms.Owners("exp/"+req.ID, 1+rt.failovers), r.Header.Get(TraceparentHeader))
}

// fleetHealth is the body of the router's GET /healthz.
type fleetHealth struct {
	Schema   string          `json:"schema"`
	Status   string          `json:"status"`
	Up       int             `json:"up"`
	Backends []backendStatus `json:"backends"`
	Sessions int             `json:"sessions"`
}

type backendStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
}

// health reads the fleet state /healthz and /metrics report, the status
// /healthz answers with, and the requests in flight.
func (rt *Router) health() (h fleetHealth, status, inflight int) {
	h = fleetHealth{Schema: routerSchema, Status: "ok"}
	for _, st := range rt.ms.All() {
		h.Backends = append(h.Backends, backendStatus{Name: st.Name, State: st.State.String()})
		if st.State == ring.StateUp {
			h.Up++
		}
	}
	h.Sessions, _ = rt.sessions.stats()
	inflight, draining := rt.gate.state()
	switch {
	case draining:
		h.Status = "draining"
		return h, http.StatusServiceUnavailable, inflight
	case h.Up == 0:
		h.Status = "no backends"
		return h, http.StatusServiceUnavailable, inflight
	}
	return h, http.StatusOK, inflight
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, status, _ := rt.health()
	writeJSON(w, status, h)
}

// handleMetrics serves GET /metrics (see writeMetrics), with the fleet's
// point-in-time state as gauges: replicas actually up, sessions
// awaiting or holding a stream, and requests in flight.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h, _, inflight := rt.health()
	gauges := map[string]float64{
		"router.backends_up":       float64(h.Up),
		"router.sessions.resident": float64(h.Sessions),
		"router.inflight":          float64(inflight),
	}
	if format := r.URL.Query().Get("format"); !writeMetrics(w, format, rt.m, gauges) {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("router: unknown metrics format %q", format))
	}
}

// handleSessionCreate registers a streaming session with the router (the
// backend session is created lazily at attach, so a failover between
// create and attach costs nothing). The response names the predicted
// serving replica in the backend header.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if _, draining := rt.gate.state(); draining {
		rt.writeError(w, http.StatusServiceUnavailable, errRouterDraining)
		return
	}
	var req EavesdropRequest
	body, ok := rt.readBody(w, r, &req)
	if !ok {
		return
	}
	key, err := RoutingKey(req)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, evicted, resident := rt.sessions.create(routedSession{
		body: body, key: key, traceparent: traceFor(r, req.Seed).Traceparent(),
	})
	if sess == nil {
		// Shed load, not an error: counted apart from router.errors.
		rt.m.Add(mRouterRejected, 1)
		writeErrorJSON(w, routerSchema, http.StatusTooManyRequests, fmt.Errorf("router: %d sessions resident, all streaming", resident))
		return
	}
	if evicted {
		rt.m.Add(mRouterSessionsEvicted, 1)
	}
	rt.m.Add(mRouterSessionsCreated, 1)
	rt.m.Add(mReqSession, 1)
	if cands := rt.place(key, req); len(cands) > 0 {
		w.Header().Set(BackendHeader, cands[0])
	}
	writeJSON(w, http.StatusCreated, SessionResponse{Schema: routerSchema, ID: sess.id, Stream: sess.stream})
}

// handleSessionStream relays a session's SSE stream from its owning
// replica, replaying on a fresh replica (and skipping already-delivered
// frames) when the owner dies mid-stream.
func (rt *Router) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, err := rt.sessions.attach(id, rt.gate)
	switch {
	case errors.Is(err, ErrDraining):
		rt.writeError(w, http.StatusServiceUnavailable, errRouterDraining)
		return
	case errors.Is(err, ErrSessionNotFound):
		rt.writeError(w, http.StatusNotFound, fmt.Errorf("router: session %q not found", id))
		return
	case err != nil:
		rt.writeError(w, http.StatusConflict, fmt.Errorf("router: session %q already consumed", id))
		return
	}
	defer rt.gate.leave()
	defer rt.sessions.finish(id)
	rt.m.Add(mReqStream, 1)

	rs := &sess.data
	flusher, _ := w.(http.Flusher)
	started := false
	attempts := 1 + rt.failovers
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		owner, ok := rt.ms.Owner(rs.key)
		if !ok {
			lastErr = errors.New("router: no replica up for session")
			break
		}
		if attempt > 0 {
			rt.m.Add(mSessionsFailovers, 1)
			// Before the client stream starts there is nothing to splice:
			// this attempt serves the whole stream, headers included.
			if started {
				fmt.Fprintf(w, ": failover to %s after %d frames\n\n", owner, rs.relayed)
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
		done, err := rt.relayOnce(r.Context(), w, flusher, sess.id, rs, owner, &started)
		if done {
			rt.m.Add(mRouterSessionsStreamed, 1)
			return
		}
		if r.Context().Err() != nil {
			return // the client hung up: no replica to blame, nobody to answer
		}
		lastErr = err
		log.Printf("session %s: replica %s failed mid-stream (%d frames relayed): %v",
			id, owner, rs.relayed, err)
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
	data, _ := json.Marshal(ErrorResponse{
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
// Both backend requests carry ctx, the client's.
func (rt *Router) relayOnce(ctx context.Context, w http.ResponseWriter, flusher http.Flusher, id string, rs *routedSession, owner string, started *bool) (done bool, err error) {
	// Re-create the session on the owner. Deterministic replicas make
	// this replay safe: the new session's frames are byte-identical.
	// The session's traceparent rides every replay, so a failover
	// replica records its spans under the original trace id.
	resp, err := rt.post(ctx, owner+"/v1/sessions", rs.body, rs.traceparent)
	if err != nil {
		return false, err
	}
	var sr SessionResponse
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
		h.Set(BackendHeader, owner)
		w.WriteHeader(http.StatusOK)
		// Comment frames are never relayed from the backend, so the router
		// announces the trace context itself — same ordering as a replica:
		// traceparent comment first, then the open frame.
		if rs.traceparent != "" {
			fmt.Fprintf(w, ": traceparent %s\n\n", rs.traceparent)
		}
		// The router speaks the open frame itself (the backend's carries
		// its local session id); every later frame is relayed verbatim.
		data, _ := json.Marshal(SessionResponse{Schema: routerSchema, ID: id})
		fmt.Fprintf(w, "id: 1\nevent: open\ndata: %s\n\n", data)
		if flusher != nil {
			flusher.Flush()
		}
	}

	relayed, done, err := relayFrames(stream.Body, frameWriter{w, flusher, rt.m}, rs.relayed)
	rs.relayed = relayed
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
