// Package proccount simulates an OS-level side channel in
// the EavesDroid style (arXiv:2303.03700): instead of ioctl-gated GPU
// performance counters, the attacker polls world-readable /proc and /sys
// statistics — GPU job IRQ counts, render softirq work, context
// switches, and the cumulative GPU busy time that KGSL exports through
// /sys/class/kgsl/kgsl-3d0/gpubusy — and the same delta/segment/
// classify pipeline runs over them unchanged.
//
// The channel is driven by the same victim render timeline as the KGSL
// channel: every submitted frame produces a burst of OS bookkeeping
// (a submission doorbell and a completion interrupt, softirq work and
// context switches roughly proportional to how long the frame drew, and
// the frame's draw duration accrued into the busy-time accumulator).
// What the OS counters cannot see is the per-counter overdraw structure:
// they observe event counts and draw durations, and popup redraws for
// whole keyboard rows share a draw duration, so per-key signatures
// collide into row-sized families and single-channel accuracy is
// markedly lower than on the 11-dimensional KGSL surface. The value of
// the channel is complementarity: it keeps observing while a fault plane
// starves the KGSL ioctl path, which is what the fusion classifier
// exploits.
//
// The package holds the probe simulation and its error vocabulary only;
// internal/channel lists the channel in its table, which is how the
// pipeline resolves it by Name.
//
// Determinism: the probe materializes the whole event timeline from the
// session's submitted frames at NewProbe time; every read is a
// binary-search prefix sum, a pure function of (session, read time).
package proccount

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"gpuleak/internal/fault"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// Name is the channel-table key of this channel.
const Name = "proccount"

// Dims is how many leading feature dimensions the probe fills.
const Dims = 4

// Feature-dimension indices of the channel.
const (
	dimIRQ     = 0 // GPU job interrupts (submit doorbell + completion)
	dimSoftIRQ = 1 // render softirq work units
	dimCtxSw   = 2 // context switches of the render/compositor threads
	dimBusy    = 3 // cumulative GPU busy time, µs (sysfs gpubusy)
)

// Duration quantization steps, in µs, for the scheduler-derived
// dimensions: softirq batching and context-switch counts track frame
// draw time only coarsely. The busy-time accumulator is exact to the
// microsecond — that is what the kernel's gpubusy file exports — but it
// sums whole draw durations, blind to where the time went.
const (
	softirqQuantum = 180
	ctxswQuantum   = 450
)

// Errors of the simulated /proc reader, the channel's fault taxonomy.
// ErrAgain, ErrStale and ErrClosed are the transient family a loaded
// procfs exhibits (contended seq_file reads, rotated stat windows,
// transient fd invalidation); ErrInval is a malformed transient read.
var (
	ErrAgain  = errors.New("proccount: EAGAIN: /proc read contended")
	ErrInval  = errors.New("proccount: EINVAL: malformed /proc snapshot")
	ErrStale  = errors.New("proccount: ESTALE: stat window rotated (reopen)")
	ErrClosed = errors.New("proccount: EBADF: /proc handle closed")
)

// Taxonomy is the channel's fault taxonomy: the sentinels the sampler's
// retries recover. The fault plane does not inject them: it wraps KGSL
// files only.
func Taxonomy() fault.Taxonomy {
	return fault.Taxonomy{Busy: ErrAgain, Inval: ErrInval, NotReserved: ErrStale, Closed: ErrClosed}
}

// event is one instantaneous increment of the cumulative counters.
type event struct {
	at  sim.Time
	inc [Dims]uint64
}

// Probe is an open handle on the simulated /proc counters of one victim
// session. It is owned by a single sampling goroutine, like kgsl.File.
type Probe struct {
	times []sim.Time
	// cum[i] is the counter state after events[0..i-1]; cum[0] is the
	// boot-time base, mirroring real counters that count since boot.
	cum [][Dims]uint64
}

// NewProbe opens a probe on a victim session, materializing the event
// timeline from the session's submitted frames.
func NewProbe(sess *victim.Session) *Probe {
	var evs []event
	for _, f := range sess.GPU.Frames() {
		q := uint64(f.Duration())
		evs = append(evs,
			event{at: f.Start, inc: [Dims]uint64{dimIRQ: 1, dimCtxSw: 1}},
			event{at: f.End, inc: [Dims]uint64{
				dimIRQ:     1,
				dimSoftIRQ: 1 + q/softirqQuantum,
				dimCtxSw:   1 + q/ctxswQuantum,
				dimBusy:    q,
			}},
		)
	}
	slices.SortStableFunc(evs, func(a, b event) int { return cmp.Compare(a.at, b.at) })

	p := &Probe{}
	var base [Dims]uint64
	for i := range base {
		// Deterministic boot offset, as on a device that has been running.
		base[i] = uint64(2e6) + uint64(i*211)
	}
	p.cum = append(p.cum, base)
	for _, ev := range evs {
		// Merge coincident events into one step so reads never split them.
		if n := len(p.times); n > 0 && p.times[n-1] == ev.at {
			last := &p.cum[len(p.cum)-1]
			for i := range last {
				last[i] += ev.inc[i]
			}
			continue
		}
		p.times = append(p.times, ev.at)
		next := p.cum[len(p.cum)-1]
		for i := range next {
			next[i] += ev.inc[i]
		}
		p.cum = append(p.cum, next)
	}
	return p
}

// ReserveSelected is a no-op: /proc files need no reservation protocol.
// It exists so the probe satisfies channel.Probe, and so a fault plane's
// revocation (ErrStale) heals through the sampler's re-reserve path,
// which models reopening the rotated stat file.
func (p *Probe) ReserveSelected(t sim.Time) error { return nil }

// ReadSelected returns the cumulative counters at t: the prefix sum of
// all events at or before t, leading Dims entries meaningful, the rest
// zero. Counts are monotonically non-decreasing in t.
func (p *Probe) ReadSelected(t sim.Time) (trace.Raw, error) {
	idx := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t })
	var out trace.Raw
	copy(out[:Dims], p.cum[idx][:])
	return out, nil
}
