// Package fault is the deterministic fault-injection plane of the
// simulated KGSL stack. A real /dev/kgsl-3d0 consumer cannot assume every
// ioctl succeeds or that every sampler tick lands on schedule: the paper
// reports counters being reclaimed mid-session and polls jittering under
// load, and related side-channel pipelines (EavesDroid, ARMageddon) live
// or die on their tolerance to exactly this mess. This package makes that
// mess a first-class, replayable input: a File wraps any KGSL-shaped
// device handle and injects the failure taxonomy a real Adreno stack
// exhibits —
//
//   - transient EBUSY / EINVAL ioctl errors (driver contention, glitches);
//   - counter-group revocation: another process issues PERFCOUNTER_PUT/GET
//     on the shared global counters and the attacker's reservation dies
//     mid-session (kgsl.ErrNotReserved until re-reserved);
//   - missed and late sampler ticks (scheduler preemption of the polling
//     loop);
//   - wrapped/saturated counter reads (32-bit register truncation);
//   - transient device closure (driver reset; kgsl.ErrClosed for a few
//     operations, then the handle comes back).
//
// Determinism contract: every injection decision is drawn from one
// sim.Rand owned by the File, in call order. A File is used by a single
// sampling goroutine (exactly like kgsl.File), so for a fixed (Profile,
// seed) the fault schedule replays bit-identically — at any worker count,
// because concurrent scenarios each own an independently seeded File
// (sim.TaskSeed-style derivation, see Seed).
package fault

import "gpuleak/internal/sim"

// Profile parameterizes one fault plane: per-operation probabilities plus
// burst shapes. The zero value injects nothing — wrapping a device in the
// zero Profile is a byte-identical passthrough, which the golden tests
// pin. Probabilities are per ioctl (PBusy, PInval, PRevoke, PClose, PWrap)
// or per sampler tick (PDropTick, PLateTick).
type Profile struct {
	// Name identifies the profile in reports and request bodies.
	Name string `json:"name"`

	// PBusy is the per-operation probability of a transient EBUSY burst;
	// BusyBurst is how many consecutive operations fail once it fires
	// (minimum 1).
	PBusy     float64 `json:"p_busy,omitempty"`
	BusyBurst int     `json:"busy_burst,omitempty"`
	// PInval is the per-operation probability of a one-shot spurious
	// EINVAL.
	PInval float64 `json:"p_inval,omitempty"`
	// PRevoke is the per-read probability that the counter-group
	// reservation is revoked: reads fail with kgsl.ErrNotReserved until
	// the caller re-reserves (PERFCOUNTER_GET / ReserveSelected).
	PRevoke float64 `json:"p_revoke,omitempty"`
	// PDropTick is the per-tick probability that the sampler misses a
	// poll entirely (the monitoring process lost the CPU for the whole
	// interval); DropBurst is how many consecutive ticks are lost once it
	// fires (minimum 1) — a foreground app pinning the CPUs deschedules
	// the polling loop for whole bursts, not single intervals.
	PDropTick float64 `json:"p_drop_tick,omitempty"`
	DropBurst int     `json:"drop_burst,omitempty"`
	// PLateTick is the per-tick probability that a poll lands late by a
	// uniform delay in (0, LateMax]; LateMax defaults to 2 ms.
	PLateTick float64  `json:"p_late_tick,omitempty"`
	LateMax   sim.Time `json:"late_max_us,omitempty"`
	// PWrap is the per-read probability that one counter value is
	// truncated to 32 bits (register wrap / saturation).
	PWrap float64 `json:"p_wrap,omitempty"`
	// PClose is the per-operation probability of a transient device
	// closure: CloseOps consecutive operations fail with kgsl.ErrClosed,
	// then the handle recovers (minimum 3).
	PClose   float64 `json:"p_close,omitempty"`
	CloseOps int     `json:"close_ops,omitempty"`
}

// IsZero reports whether the profile injects nothing.
func (p Profile) IsZero() bool {
	return p.PBusy == 0 && p.PInval == 0 && p.PRevoke == 0 &&
		p.PDropTick == 0 && p.PLateTick == 0 && p.PWrap == 0 && p.PClose == 0
}

// Rate is a crude severity scalar (the sum of all probabilities), used
// only to order profiles in reports and monotonicity tests.
func (p Profile) Rate() float64 {
	drop := p.PDropTick
	if p.DropBurst > 1 {
		// One drop event costs DropBurst consecutive ticks, so the
		// per-tick loss fraction scales with the burst length.
		drop *= float64(p.DropBurst)
	}
	return p.PBusy + p.PInval + p.PRevoke + drop + p.PLateTick + p.PWrap + p.PClose
}

// Predefined profiles, in increasing severity. Rates are chosen so that
// the sampler's bounded retries (attack.Sampler.Retry) recover every
// profile — accuracy degrades monotonically, availability does not fail —
// which the chaos experiments pin.
var (
	// None injects nothing; wrapping with it is a byte-identical
	// passthrough.
	None = Profile{Name: "none"}
	// Mild models a well-behaved device under light contention.
	Mild = Profile{
		Name:  "mild",
		PBusy: 0.002, BusyBurst: 1,
		PInval:    0.001,
		PDropTick: 0.002,
		PLateTick: 0.01, LateMax: sim.Millisecond,
	}
	// Moderate models a loaded device: bursty EBUSY, occasional
	// revocation, visible tick loss.
	Moderate = Profile{
		Name:  "moderate",
		PBusy: 0.01, BusyBurst: 2,
		PInval:    0.004,
		PRevoke:   0.004,
		PDropTick: 0.01,
		PLateTick: 0.03, LateMax: 2 * sim.Millisecond,
		PWrap: 0.004,
	}
	// Severe models a hostile environment: frequent revocation, long
	// busy bursts, transient driver resets.
	Severe = Profile{
		Name:  "severe",
		PBusy: 0.03, BusyBurst: 3,
		PInval:    0.01,
		PRevoke:   0.015,
		PDropTick: 0.03,
		PLateTick: 0.06, LateMax: 3 * sim.Millisecond,
		PWrap:  0.01,
		PClose: 0.004, CloseOps: 3,
	}
	// Starve models CPU starvation of the monitoring process: a heavy
	// foreground workload deschedules the polling loop in multi-tick
	// bursts, so whole key presses vanish between reads while the device
	// itself stays healthy. This is the profile where a second,
	// non-KGSL observation channel pays off — the ioctl sampler loses
	// entire presses, and only cross-channel fusion gets them back.
	Starve = Profile{
		Name:      "starve",
		PDropTick: 0.035, DropBurst: 5,
		PLateTick: 0.05, LateMax: 2 * sim.Millisecond,
	}
)

// Profiles returns the predefined profiles in increasing severity.
func Profiles() []Profile { return []Profile{None, Mild, Moderate, Severe, Starve} }

// ByName resolves a predefined profile by its Name.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names lists the predefined profile names in severity order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Seed derives the fault-plane seed of one scenario from a base seed and
// a scenario index. It is sim.TaskSeed with a fixed stream-separation
// constant, so fault schedules never share a stream with the victim
// simulation seeded from the same base.
func Seed(base int64, scenario int) int64 {
	return sim.TaskSeed(base^0x6661756c74, scenario)
}
