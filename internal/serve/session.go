package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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

// sessionState tracks a session through its single-use lifecycle; a
// finished session leaves the table.
type sessionState int

const (
	sessionCreated sessionState = iota
	sessionStreaming
)

// session is one registered streaming session of either server: its
// single-use lifecycle plus the server's own per-session data.
type session[T any] struct {
	id string
	// stream is the path of the session's one stream attach,
	// GET /v1/sessions/{id}/stream.
	stream string
	// seq is the table's logical creation clock; the oldest never-attached
	// session is evicted first when the table is full.
	seq      uint64
	state    sessionState
	stopIdle func()
	data     T
}

// replicaSession is what a Server keeps per session: the resolved
// request, waiting for its one stream attach. Per-session state is
// bounded by construction — the request, the scenario, and lifecycle
// bookkeeping; verdicts are written straight to the attached stream,
// never buffered per session.
type replicaSession struct {
	req  EavesdropRequest
	scen Scenario
	// trace is the session's trace context, captured at create time: the
	// router forwards the traceparent on the create POST (and on every
	// failover replay), while the stream attach carries no header — so a
	// replayed session keeps recording under its original trace id.
	trace obs.TraceContext
}

// sessionTable is the bounded registry of live sessions, shared by Server
// and Router. Boundedness has two layers: a hard cap with
// oldest-unattached eviction (a logical-clock policy, so the serving
// package stays wall-clock-free), plus, on a Server, an optional
// per-session idle timer the daemon injects (Options.SessionTimer).
type sessionTable[T any] struct {
	prefix string // ids are prefix + the 8-digit creation count
	cap    int

	mu   sync.Mutex
	byID map[string]*session[T]
	seq  uint64
}

func newSessionTable[T any](prefix string, cap int) *sessionTable[T] {
	return &sessionTable[T]{prefix: prefix, cap: cap, byID: map[string]*session[T]{}}
}

// create registers a session holding data, evicting the oldest
// never-attached one if the table is full. When every resident session
// is attached it registers nothing, and returns a nil session and the
// resident count for the caller's 429.
func (t *sessionTable[T]) create(data T) (sess *session[T], evicted bool, resident int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.byID) >= t.cap {
		var victim *session[T]
		for _, s := range t.byID {
			if s.state != sessionCreated {
				continue
			}
			if victim == nil || s.seq < victim.seq {
				victim = s
			}
		}
		if victim == nil {
			return nil, false, len(t.byID)
		}
		delete(t.byID, victim.id)
		if victim.stopIdle != nil {
			victim.stopIdle()
		}
		evicted = true
	}
	t.seq++
	sess = &session[T]{seq: t.seq, data: data}
	sess.id, sess.stream = sessionPath(t.prefix, t.seq)
	t.byID[sess.id] = sess
	return sess, evicted, len(t.byID)
}

// sessionPath formats a session's id, prefix and the creation count
// zero-padded to 8 digits, and its stream path around it, in one string:
// the id is a slice of the path.
func sessionPath(prefix string, seq uint64) (id, stream string) {
	const head, tail = "/v1/sessions/", "/stream"
	var buf [64]byte
	b := append(append(buf[:0], head...), prefix...)
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	for i := len(d); i < 8; i++ {
		b = append(b, '0')
	}
	stream = string(append(append(b, d...), tail...))
	return stream[len(head) : len(stream)-len(tail)], stream
}

// armIdle hands sess the stop function of its idle timer. The timer may
// have fired (and dropped the session) before the create handler got
// here; then the stop function runs at once instead.
func (t *sessionTable[T]) armIdle(sess *session[T], stop func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byID[sess.id] == sess {
		sess.stopIdle = stop
	} else if stop != nil {
		stop()
	}
}

// attach claims session id for its one stream, enforcing the single-use
// contract, and admits the stream through g. A stream the gate refuses
// (draining) fails with ErrDraining and reverts the claim, so the session
// stays unattached: counted, evictable, and dropped by a replica's
// shutdown.
func (t *sessionTable[T]) attach(id string, g *gate) (*session[T], error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", id, ErrSessionNotFound)
	}
	if s.state != sessionCreated {
		return nil, fmt.Errorf("session %q: %w", id, ErrSessionConsumed)
	}
	if !g.enter() {
		return nil, ErrDraining
	}
	s.state = sessionStreaming
	if s.stopIdle != nil {
		s.stopIdle()
		s.stopIdle = nil
	}
	return s, nil
}

// finish retires a streamed session from the table.
func (t *sessionTable[T]) finish(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, id)
}

// drop removes a session only while it is still unattached; the idle
// reaper and DELETE /v1/sessions/{id} both land here.
func (t *sessionTable[T]) drop(id string) bool {
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
func (t *sessionTable[T]) stats() (resident, streaming int) {
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
func (t *sessionTable[T]) clear() {
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
	if _, draining := s.gate.state(); draining {
		s.failRequest(w, mErrorsSession, ErrDraining)
		return
	}
	sess, evicted, resident := s.sessions.create(replicaSession{req: req, scen: scen, trace: traceFor(r, req.Seed)})
	if sess == nil {
		s.failRequest(w, mErrorsSession, fmt.Errorf("sessions: %d registered, all streaming: %w", resident, ErrBusy))
		return
	}
	if evicted {
		s.m.Add(mSessionsEvicted, 1)
	}
	if s.opts.SessionTimer != nil {
		id := sess.id
		s.sessions.armIdle(sess, s.opts.SessionTimer(func() {
			if s.sessions.drop(id) {
				s.m.Add(mSessionsIdleReaped, 1)
			}
		}))
	}
	s.m.Add(mSessionsCreated, 1)
	writeJSON(w, http.StatusCreated, SessionResponse{Schema: Schema, ID: sess.id, Stream: sess.stream})
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
	sess, err := s.sessions.attach(r.PathValue("id"), s.gate)
	if err != nil {
		s.failRequest(w, mErrorsStream, err)
		return
	}
	defer s.gate.leave()
	defer s.sessions.finish(sess.id)
	run := &sess.data
	ctx, cancel := s.requestContext(r, run.req.TimeoutMS)
	defer cancel()
	tc := run.trace
	ctx = obs.WithTraceContext(ctx, tc)

	st := newSSEStream(w, sess.id, tc.Local())
	err = s.do(ctx, s.ref(TrainConfig(run.scen.Cfg), run.scen.Primary()).shard, func(ctx context.Context) error {
		resp, err := s.runEavesdrop(ctx, run.scen, run.req, st.event, mLatencyStream)
		if err != nil {
			return err
		}
		return st.result(&resp)
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
