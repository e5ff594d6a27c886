// Package channel defines the side-channel plane. The paper's
// attack shape — sample a cumulative counter surface, extract delta
// vectors, segment them, centroid-classify — is not specific to GPU
// performance counters: EavesDroid runs the same loop over /proc
// interrupt and runqueue counters, and power-trace attacks run it over
// VBUS current. A Channel packages everything the generic pipeline needs
// to run that loop over one such surface: how to open a probe on a
// victim session, how many feature dimensions the probe fills, which
// error sentinels its driver surfaces, and the default polling cadence.
//
// The set of channels is closed: a fixed table built into the binary, in
// the shape of exp.All and fault.Profiles. Consumers resolve channels by
// name through Get, so which channels a binary can run never depends on
// what it happens to import. The KGSL perf-counter channel is the first
// and default entry; internal/proccount's OS-counter channel is the
// second.
//
// # Determinism contract
//
// A Channel's Open must be stateless and safe for concurrent use: all
// per-run state lives in the Probe it opens. A Probe is owned by one
// sampling goroutine and its reads must be pure functions of (session,
// read time) — never of wall clock, read count, or scheduling — so a
// collection replays byte-identically at any worker count. Probes fill the leading
// Dims entries of each trace.Raw read with cumulative, monotonically
// non-decreasing counters and leave the remaining dimensions zero; the
// delta extraction, weighting and classification layers above are
// width-agnostic because an all-zero dimension contributes nothing to
// weighted distance.
package channel

import (
	"errors"
	"fmt"

	"gpuleak/internal/fault"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// DefaultName is the channel used everywhere a channel is not named: the
// KGSL perf-counter path the repository was born with. Models trained on
// it carry an empty channel tag for backward compatibility (see
// attack.ModelKey).
const DefaultName = "kgsl"

// ErrUnknownChannel reports a channel name absent from the table.
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
	// fixed-width feature space, leading Dims entries meaningful.
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

// Channel is one side channel of the table.
type Channel struct {
	// Name is the table key ("kgsl", "proccount").
	Name string
	// Dims is how many leading dimensions of trace.Raw the probe fills.
	Dims int
	// Interval is the channel's default polling period.
	Interval sim.Time
	// Taxonomy is the channel's transient-error vocabulary: what the fault
	// plane injects for it and what the sampler's retry policy recovers.
	Taxonomy fault.Taxonomy
	// Open returns a fresh probe on a materialized victim session, as the
	// attacker's unprivileged process would acquire it.
	Open func(sess *victim.Session) (Probe, error)
}

// table lists every channel, sorted by name.
var table = []Channel{
	{
		// The paper's original attack surface. Opening a probe is exactly
		// victim.Session.Open (an unprivileged handle on /dev/kgsl-3d0),
		// all trace.Width dimensions carry the Table-1 counters, the error
		// taxonomy is the KGSL errno family, and the interval is the §7
		// default of one read every 8 ms (attack.DefaultInterval).
		Name:     DefaultName,
		Dims:     trace.Width,
		Interval: 8 * sim.Millisecond,
		Taxonomy: fault.KGSL(),
		Open:     func(sess *victim.Session) (Probe, error) { return sess.Open() },
	},
	{
		// EavesDroid-style /proc and /sys counters. The interval matches
		// KGSL: /proc stats refresh faster than 8 ms, and a shared tick
		// grid keeps the two channels' delta streams alignable for fusion.
		Name:     proccount.Name,
		Dims:     proccount.Dims,
		Interval: 8 * sim.Millisecond,
		Taxonomy: proccount.Taxonomy(),
		Open:     func(sess *victim.Session) (Probe, error) { return proccount.NewProbe(sess), nil },
	},
}

// Get resolves a channel by name. The empty name resolves to DefaultName,
// so legacy call sites that never mention channels keep meaning KGSL.
// Unknown names fail with an error matching ErrUnknownChannel.
func Get(name string) (Channel, error) {
	if name == "" {
		name = DefaultName
	}
	for _, c := range table {
		if c.Name == name {
			return c, nil
		}
	}
	return Channel{}, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownChannel, name, Names())
}

// Names lists the channel names, sorted.
func Names() []string {
	out := make([]string, len(table))
	for i, c := range table {
		out[i] = c.Name
	}
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
