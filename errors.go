package gpuleak

import (
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/exp"
	"gpuleak/internal/serve"
)

// Stable error taxonomy of the facade. Each variable is the canonical
// errors.Is target for one failure family; the values are shared with the
// internal layers, so a sentinel surfaced through any path — the library
// API, the experiment registry, or the gpuleakd HTTP layer — matches
// without the caller importing internal packages:
//
//	if errors.Is(err, gpuleak.ErrBusy) { backoffAndRetry() }
//
// The kgsl driver's errno sentinels (EPERM, EACCES, ...) stay internal on
// purpose: a mitigated device is reported through wrapped errors whose
// text carries the errno, and the serving layer maps them onto HTTP 403.
var (
	// ErrUnknownExperiment reports an experiment ID absent from the
	// registry (RunExperimentContext, POST /v1/experiment).
	ErrUnknownExperiment error = exp.ErrUnknownExperiment
	// ErrModelNotTrained reports an attack attempted without a classifier
	// for the victim configuration: no models preloaded into an Attack, or
	// a pretrained-only serving request missing its registry entry.
	ErrModelNotTrained error = attack.ErrModelNotTrained
	// ErrBusy reports backpressure from the serving layer: a shard work
	// queue was full, or every resident streaming session was streaming,
	// and the request was rejected (HTTP 429) instead of queued
	// unboundedly.
	ErrBusy error = serve.ErrBusy
	// ErrSessionNotFound reports a streaming-session ID with no resident
	// state: never created, already finished, evicted under MaxSessions
	// pressure, or reaped by the idle timer (HTTP 404).
	ErrSessionNotFound error = serve.ErrSessionNotFound
	// ErrSessionConsumed reports a second attach to a streaming session:
	// each session is single-use and its verdict stream belongs to the
	// first GET that claims it (HTTP 409).
	ErrSessionConsumed error = serve.ErrSessionConsumed
	// ErrUnknownChannel reports a side-channel name absent from the
	// registry (CollectOptions.Channel, EavesdropSession's channels, the
	// "channel"/"channels" request fields). See Channels for the
	// registered names (HTTP 400).
	ErrUnknownChannel error = channel.ErrUnknownChannel
	// ErrUnknownDefense reports a defense name absent from the registry
	// (DefenseByName, the "defense" request field). See Defenses for the
	// registered names (HTTP 400).
	ErrUnknownDefense error = defense.ErrUnknownDefense
)

// Is makes *UnknownExperimentError match ErrUnknownExperiment under
// errors.Is, so the legacy concrete error type and the sentinel taxonomy
// agree on identity.
func (e *UnknownExperimentError) Is(target error) bool {
	return target == ErrUnknownExperiment
}
