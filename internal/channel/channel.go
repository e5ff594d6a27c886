// Package channel defines the pluggable side-channel plane. The paper's
// attack shape — sample a cumulative counter surface, extract delta
// vectors, segment them, centroid-classify — is not specific to GPU
// performance counters: EavesDroid runs the same loop over /proc
// interrupt and runqueue counters, and power-trace attacks run it over
// VBUS current. A Channel packages everything the generic pipeline needs
// to run that loop over one such surface: how to open a probe on a
// victim session, how many feature dimensions the probe fills, which
// error sentinels its driver surfaces, and the default polling cadence.
//
// Implementations self-register through Register from their package's
// init function (the gpuvet channelreg analyzer enforces this); consumers
// resolve them by name through Get and never construct them directly.
// The KGSL perf-counter channel (internal/kgslchan) is the first and
// default implementation; internal/proccount is the second.
//
// # Determinism contract
//
// A Channel must be stateless and safe for concurrent use: all per-run
// state lives in the Probe it opens. A Probe is owned by one sampling
// goroutine and its reads must be pure functions of (session, read time)
// — never of wall clock, read count, or scheduling — so a collection
// replays byte-identically at any worker count. Probes fill the leading
// Dims() entries of each trace.Raw read with cumulative, monotonically
// non-decreasing counters and leave the remaining dimensions zero; the
// delta extraction, weighting and classification layers above are
// width-agnostic because an all-zero dimension contributes nothing to
// weighted distance.
package channel

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gpuleak/internal/fault"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// DefaultName is the channel used everywhere a channel is not named: the
// KGSL perf-counter path the repository was born with. Models trained on
// it carry an empty channel tag for backward compatibility (see
// attack.ModelKey).
const DefaultName = "kgsl"

// ErrUnknownChannel reports a channel name absent from the registry.
// Match with errors.Is; the serving layer maps it onto HTTP 400.
var ErrUnknownChannel = errors.New("channel: unknown channel")

// Probe is one open sampling handle on a victim session: the two calls
// the generic sampler issues per polling tick. *kgsl.File and
// *fault.File satisfy it structurally (their method set is a superset).
type Probe interface {
	// ReserveSelected acquires the channel's counter surface at t; the
	// sampler retries it on the taxonomy's NotReserved sentinel.
	ReserveSelected(t sim.Time) error
	// ReadSelected reads the cumulative counters at t into the shared
	// fixed-width feature space, leading Dims() entries meaningful.
	ReadSelected(t sim.Time) (trace.Raw, error)
}

// TickFaults is the optional clock-perturbation surface of a probe: before
// each poll the sampler asks whether this tick is dropped (the monitoring
// process lost the CPU for the whole interval) or lands late by delay.
// The sampler type-asserts its probe for it — *fault.File implements it,
// and every defense wrapper forwards it so a fault plane underneath keeps
// its schedule; a bare probe does not, and pays nothing.
type TickFaults interface {
	TickFault(tick int, t sim.Time) (delay sim.Time, drop bool)
}

// Channel is one registered side channel.
type Channel interface {
	// Name is the registry key ("kgsl", "proccount").
	Name() string
	// Dims is how many leading dimensions of trace.Raw the probe fills.
	Dims() int
	// Open returns a fresh probe on a materialized victim session, as the
	// attacker's unprivileged process would acquire it.
	Open(sess *victim.Session) (Probe, error)
	// Taxonomy is the channel's transient-error vocabulary: what the fault
	// plane injects for it and what the sampler's retry policy recovers.
	Taxonomy() fault.Taxonomy
	// Interval is the channel's default polling period.
	Interval() sim.Time
}

var (
	regMu    sync.RWMutex
	registry = map[string]Channel{}
)

// Register adds a channel to the registry. It is called from the
// implementing package's init function and panics on a duplicate or
// empty name, mirroring the analyzer and experiment registries.
func Register(c Channel) {
	name := c.Name()
	if name == "" {
		panic("channel: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("channel: duplicate Register(%q)", name))
	}
	registry[name] = c
}

// Get resolves a channel by name. The empty name resolves to DefaultName,
// so legacy call sites that never mention channels keep meaning KGSL.
// Unknown names fail with an error matching ErrUnknownChannel.
func Get(name string) (Channel, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	c, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownChannel, name, Names())
	}
	return c, nil
}

// Names lists the registered channel names, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// Canonical maps a channel name onto its model-key tag: the default
// channel is tagged with the empty string so models trained before the
// channel plane existed — and their serialized JSON — stay identical.
func Canonical(name string) string {
	if name == DefaultName {
		return ""
	}
	return name
}
