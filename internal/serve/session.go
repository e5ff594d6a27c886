package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"gpuleak/internal/obs"
)

// Sentinels of the streaming-session lifecycle; the facade re-exports
// them alongside the rest of the error taxonomy.
var (
	// ErrSessionNotFound reports a stream attach (or delete) for a session
	// id the server does not hold: never created, already streamed to
	// completion, idle-reaped, or dropped by a shutdown.
	ErrSessionNotFound = errors.New("serve: session not found")
	// ErrSessionConsumed reports a second attach to a session whose stream
	// is already running or finished: a session is a single-use ticket.
	ErrSessionConsumed = errors.New("serve: session stream already consumed")
)

// sessionState tracks a session through its single-use lifecycle.
type sessionState int

const (
	sessionCreated sessionState = iota
	sessionStreaming
	sessionDone
)

// session is one registered streaming eavesdrop: the resolved request,
// waiting for its one stream attach. Per-session state is bounded by
// construction — the request, the scenario, and lifecycle bookkeeping;
// verdicts are written straight to the attached stream, never buffered
// per session.
type session struct {
	id   string
	req  EavesdropRequest
	scen Scenario
	// seq is the table's logical creation clock; the oldest never-attached
	// session is evicted first when the table is full.
	seq      uint64
	state    sessionState
	stopIdle func()
	// trace is the session's trace context, captured at create time: the
	// router forwards the traceparent on the create POST (and on every
	// failover replay), while the stream attach carries no header — so a
	// replayed session keeps recording under its original trace id.
	trace obs.TraceContext
}

// sessionTable is the bounded registry of live sessions. Boundedness has
// two layers: a hard cap with oldest-unattached eviction (a logical-clock
// policy, so the serving package stays wall-clock-free), plus an optional
// per-session idle timer the daemon injects (Options.SessionTimer).
type sessionTable struct {
	mu     sync.Mutex
	byID   map[string]*session
	cap    int
	nextID uint64
	seq    uint64
}

func newSessionTable(cap int) *sessionTable {
	return &sessionTable{byID: map[string]*session{}, cap: cap}
}

// create registers a session, evicting the oldest never-attached one if
// the table is full. It fails with ErrBusy when every resident session is
// already streaming.
func (t *sessionTable) create(req EavesdropRequest, scen Scenario, trace obs.TraceContext) (*session, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evicted := false
	if len(t.byID) >= t.cap {
		var victim *session
		for _, s := range t.byID {
			if s.state != sessionCreated {
				continue
			}
			if victim == nil || s.seq < victim.seq {
				victim = s
			}
		}
		if victim == nil {
			return nil, false, fmt.Errorf("sessions: %d registered, all streaming: %w", len(t.byID), ErrBusy)
		}
		delete(t.byID, victim.id)
		if victim.stopIdle != nil {
			victim.stopIdle()
		}
		evicted = true
	}
	t.nextID++
	t.seq++
	s := &session{
		id:    fmt.Sprintf("s-%08d", t.nextID),
		req:   req,
		scen:  scen,
		seq:   t.seq,
		trace: trace,
	}
	t.byID[s.id] = s
	return s, evicted, nil
}

// claim transitions a session from created to streaming, enforcing the
// single-use contract.
func (t *sessionTable) claim(id string) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", id, ErrSessionNotFound)
	}
	if s.state != sessionCreated {
		return nil, fmt.Errorf("session %q: %w", id, ErrSessionConsumed)
	}
	s.state = sessionStreaming
	if s.stopIdle != nil {
		s.stopIdle()
		s.stopIdle = nil
	}
	return s, nil
}

// unclaim reverts a claim that could not start streaming (the server
// began draining between claim and admission).
func (t *sessionTable) unclaim(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byID[id]; ok && s.state == sessionStreaming {
		s.state = sessionCreated
	}
}

// finish retires a streamed session from the table.
func (t *sessionTable) finish(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byID[id]; ok {
		s.state = sessionDone
		delete(t.byID, s.id)
	}
}

// drop removes a session only while it is still unattached; the idle
// reaper and DELETE /v1/sessions/{id} both land here.
func (t *sessionTable) drop(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if !ok || s.state != sessionCreated {
		return false
	}
	if s.stopIdle != nil {
		s.stopIdle()
	}
	delete(t.byID, id)
	return true
}

// stats reports resident and currently-streaming session counts.
func (t *sessionTable) stats() (resident, streaming int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.byID {
		if s.state == sessionStreaming {
			streaming++
		}
	}
	return len(t.byID), streaming
}

// clear empties the table (shutdown: unattached sessions are dropped;
// attached ones are tracked by the in-flight drain, not the table).
func (t *sessionTable) clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, s := range t.byID {
		if s.stopIdle != nil {
			s.stopIdle()
		}
		delete(t.byID, id)
	}
}

// handleSessionCreate serves POST /v1/sessions: validate the eavesdrop
// request now (so a bad request fails fast, not at attach time), register
// the session, and hand back the stream path. The run itself starts when
// the client attaches — a registered session costs only its bookkeeping.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req EavesdropRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, mErrorsSession, err)
		return
	}
	scen, err := ResolveScenario(req)
	if err != nil {
		s.failRequest(w, mErrorsSession, err)
		return
	}
	if len(scen.Channels) > 1 {
		s.failRequest(w, mErrorsSession, fmt.Errorf(
			"%w: streaming sessions are single-channel; use POST /v1/eavesdrop for fusion", ErrBadRequest))
		return
	}
	if s.Draining() {
		s.failRequest(w, mErrorsSession, ErrDraining)
		return
	}
	sess, evicted, err := s.sessions.create(req, scen, traceFor(r, req.Seed))
	if err != nil {
		s.failRequest(w, mErrorsSession, err)
		return
	}
	if evicted {
		s.m.Add(mSessionsEvicted, 1)
	}
	if s.opts.SessionTimer != nil {
		id := sess.id
		stop := s.opts.SessionTimer(func() {
			if s.sessions.drop(id) {
				s.m.Add(mSessionsIdleReaped, 1)
			}
		})
		s.sessions.mu.Lock()
		// The timer may have fired (and dropped the session) before we got
		// here; only arm the stop hook while the session is still resident.
		if cur, ok := s.sessions.byID[id]; ok && cur == sess {
			sess.stopIdle = stop
		} else if stop != nil {
			stop()
		}
		s.sessions.mu.Unlock()
	}
	s.m.Add(mSessionsCreated, 1)
	writeJSON(w, http.StatusCreated, SessionResponse{
		Schema: Schema,
		ID:     sess.id,
		Stream: "/v1/sessions/" + sess.id + "/stream",
	})
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: cancel a session
// that has not attached its stream yet.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.drop(id) {
		s.failRequest(w, mErrorsSession, fmt.Errorf("session %q: %w", id, ErrSessionNotFound))
		return
	}
	s.m.Add(mSessionsCanceled, 1)
	writeJSON(w, http.StatusOK, SessionResponse{Schema: Schema, ID: id})
}

// handleSessionStream serves GET /v1/sessions/{id}/stream: the session's
// one SSE attach. Setup failures (unknown session, draining, training
// errors) are answered as plain JSON errors before any stream bytes are
// written; once the stream opens, the response is a sequence of SSE
// frames — "open", then "key"/"retract" verdicts as Algorithm 1 emits
// them, closed by a "result" frame whose data is byte-identical (modulo
// JSON whitespace) to the one-shot /v1/eavesdrop response body for the
// same request, or an "error" frame if sampling failed mid-run.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.claim(r.PathValue("id"))
	if err != nil {
		s.failRequest(w, mErrorsStream, err)
		return
	}
	if err := s.begin(); err != nil {
		s.sessions.unclaim(sess.id)
		s.failRequest(w, mErrorsStream, err)
		return
	}
	defer s.end()
	defer s.sessions.finish(sess.id)
	ctx, cancel := s.requestContext(r, sess.req.TimeoutMS)
	defer cancel()
	tc := sess.trace
	ctx = obs.WithTraceContext(ctx, tc)

	st := &sseStream{w: w, sessionID: sess.id, trace: tc.Local()}
	if f, ok := w.(http.Flusher); ok {
		st.flush = f
	}
	err = s.do(ctx, s.reg.ShardFor(ChannelKey(TrainConfig(sess.scen.Cfg), sess.scen.Primary())), func(ctx context.Context) error {
		resp, err := s.runEavesdrop(ctx, sess.scen, sess.req, st.event, mLatencyStream)
		if err != nil {
			return err
		}
		return st.result(resp)
	})
	if err != nil {
		if !st.started {
			s.failRequest(w, mErrorsStream, err)
			return
		}
		// The stream is already flowing: the failure travels in-band.
		st.fail(err, statusFor(err))
		s.m.Add(mErrors, 1)
		s.m.Add(mErrorsStream, 1)
		return
	}
	s.m.Add(mSessionsStreamed, 1)
}
