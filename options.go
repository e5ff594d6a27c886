package gpuleak

// Option is a functional option accepted by the facade's context-aware
// entry points (TrainContext, RunExperimentContext, EavesdropSession).
// Options are a thin layer over the existing option structs —
// CollectOptions and exp.Options keep working unchanged — so callers can
// start with the one-liner and graduate to the structs when they need the
// full surface.
type Option func(*apiOptions)

// apiOptions is the merged knob set the functional options write into;
// each entry point projects the fields it understands.
type apiOptions struct {
	workers  int
	obs      *Tracer
	repeats  int
	channels []string
}

func buildOptions(opts []Option) apiOptions {
	var o apiOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithWorkers caps the worker pool an operation fans out across: 1 is
// fully serial, 0 (the default) one worker per CPU. Worker counts never
// change results — training and experiments are byte-identical at any
// parallelism.
func WithWorkers(n int) Option { return func(o *apiOptions) { o.workers = n } }

// WithObs attaches a telemetry tracer (see NewTracer): offline-phase
// spans, sampler spans and engine verdicts land on it deterministically.
func WithObs(tr *Tracer) Option { return func(o *apiOptions) { o.obs = tr } }

// WithRepeats sets how many times the offline phase emulates each key
// (default 3 for TrainContext, matching Train).
func WithRepeats(n int) Option { return func(o *apiOptions) { o.repeats = n } }

// WithChannel selects the side channel an operation reads through, by
// registry name (see Channels). The default is "kgsl", the paper's GPU
// perf-counter channel; every pre-channel-plane call site behaves as if
// this option never existed. Unknown names surface as ErrUnknownChannel
// when the operation runs.
func WithChannel(name string) Option {
	return func(o *apiOptions) { o.channels = []string{name} }
}

// WithChannels selects several side channels at once for entry points
// that support multi-channel operation (EavesdropSession): the first
// name is the primary channel, the second the secondary whose detections
// fuse into the primary's result. WithChannels(name) is WithChannel.
func WithChannels(names ...string) Option {
	return func(o *apiOptions) { o.channels = append([]string(nil), names...) }
}

// collect projects the options onto the offline phase's struct.
func (o apiOptions) collect() CollectOptions {
	return CollectOptions{
		Repeats: o.repeats,
		Workers: o.workers,
		Obs:     o.obs,
		Channel: o.channel(),
	}
}

// channel resolves the single-channel selection ("" = default KGSL).
func (o apiOptions) channel() string {
	if len(o.channels) == 0 {
		return ""
	}
	return o.channels[0]
}
