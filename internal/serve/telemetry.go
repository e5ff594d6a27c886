package serve

import (
	"net/http"

	"gpuleak/internal/obs"
)

// TraceparentHeader is the W3C-style header that carries trace context
// between a client, the router, and replicas. Comment frames carry the
// same value in-band on SSE streams (": traceparent <value>"), because
// SSE comment frames have no id and are never replayed across a
// failover — each hop speaks its own.
const TraceparentHeader = "traceparent"

// Span vocabulary of the serving layer. One request trace reads, in
// order: an optional router hop (the request arrived with an inbound
// traceparent), the request span covering the whole Algorithm-1 run,
// the queue admission instant, then per-delta batch classifications and
// the engine's own sampler/verdict events — all on the trace's track.
var (
	evRequest       = obs.NewName("serve.request")
	evRouterHop     = obs.NewName("serve.router_hop")
	evQueueAdmit    = obs.NewName("serve.queue_admit")
	evBatchClassify = obs.NewName("serve.batch.classify")
)

// Metric-name vocabulary of the serving layer. Names are package
// constants (never inline literals at call sites) so the gpuvet
// obsevent analyzer can hold the whole metric namespace to one
// greppable block per package.
const (
	mRejected      = "serve.rejected"
	mAdmitted      = "serve.admitted"
	mQueueTimeouts = "serve.queue_timeouts"
	mMetricScrapes = "serve.metric_scrapes"

	// RED request counters, one per endpoint family, plus the matching
	// error counters failRequest attributes. serve.errors stays as the
	// endpoint-agnostic total (writeError owns it).
	mEavesdrops       = "serve.eavesdrops"
	mTrains           = "serve.trains"
	mExperiments      = "serve.experiments"
	mErrors           = "serve.errors"
	mErrorsEavesdrop  = "serve.errors.eavesdrop"
	mErrorsTrain      = "serve.errors.train"
	mErrorsExperiment = "serve.errors.experiment"
	mErrorsSession    = "serve.errors.session"
	mErrorsStream     = "serve.errors.stream"

	// RED duration histograms: end-to-end simulated victim-session span
	// in milliseconds, bucketed per obs.DefaultBuckets, with the request
	// trace id as the bucket exemplar.
	mLatencyEavesdrop = "serve.latency_ms.eavesdrop"
	mLatencyStream    = "serve.latency_ms.stream"

	mSessionsEvicted    = "serve.sessions.evicted"
	mSessionsIdleReaped = "serve.sessions.idle_reaped"
	mSessionsCreated    = "serve.sessions.created"
	mSessionsCanceled   = "serve.sessions.canceled"
	mSessionsStreamed   = "serve.sessions.streamed"

	mRegistryHits    = "registry.hits"
	mRegistryMisses  = "registry.misses"
	mRegistryTrained = "registry.trained"

	mBatchFlushes   = "serve.batch.flushes"
	mBatchJobs      = "serve.batch.jobs"
	mBatchCoalesced = "serve.batch.coalesced"
	mBatchOccupancy = "serve.batch.occupancy"
)

// traceFor resolves a request's trace context: an inbound traceparent
// header wins (the router or load generator minted the trace upstream,
// and honoring it is what stitches the router hop and the replica run
// into one trace), otherwise the replica mints the identical context
// the router would have from the request seed — so direct and proxied
// requests for the same seed carry the same trace id.
func traceFor(r *http.Request, seed int64) obs.TraceContext {
	if tc, ok := obs.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		return tc
	}
	return obs.NewTrace(seed)
}

// failRequest answers an error and attributes it to one endpoint's
// error counter (the RED "E" series of /metrics), on top of the
// endpoint-agnostic serve.errors that writeError itself counts.
func (s *Server) failRequest(w http.ResponseWriter, errMetric string, err error) {
	s.m.Add(errMetric, 1)
	s.writeError(w, err)
}
