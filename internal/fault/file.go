package fault

import (
	"gpuleak/internal/adreno"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
)

// Device is the KGSL-shaped surface the fault plane wraps: the three
// calls the attack pipeline issues against an open device handle, and
// the type attack.DeviceFile names. *kgsl.File satisfies it structurally,
// and so does *File itself, so fault planes compose (wrap a wrap to union
// two profiles).
type Device interface {
	Ioctl(t sim.Time, request uint32, arg any) error
	ReserveSelected(t sim.Time) error
	ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error)
}

// Telemetry event vocabulary of the fault plane. Registered once at
// package level (the gpuvet obsevent analyzer enforces this). Events are
// emitted only when a fault actually fires, so a zero/None profile — and
// any faultless run — leaves the telemetry stream byte-identical to an
// unwrapped device.
var (
	// evInject marks one injected device fault; fields: op (read|reserve|
	// ioctl), kind (busy|inval|revoked|wrap|closed).
	evInject = obs.NewName("fault.inject")
	// evTick marks one injected sampler-tick fault; fields: tick, kind
	// (drop|late), delay_us (late only).
	evTick = obs.NewName("fault.tick")
)

// Metric-name vocabulary of the fault plane: one counter per injected
// fault kind, mapped from the kind string by faultMetric.
const (
	mFaultClosed  = "fault.closed"
	mFaultBusy    = "fault.busy"
	mFaultInval   = "fault.inval"
	mFaultRevoked = "fault.revoked"
	mFaultWrap    = "fault.wrap"
	mFaultDrop    = "fault.drop"
	mFaultLate    = "fault.late"
	mFaultOther   = "fault.other"
)

// InjectedStats counts the faults a File actually injected. The counters
// are inputs to the chaos report: recovery is judged by comparing them
// against the sampler's CollectStats (every injection either retried away
// or degraded, never fatal).
type InjectedStats struct {
	Busy         int `json:"busy,omitempty"`
	Inval        int `json:"inval,omitempty"`
	Revocations  int `json:"revocations,omitempty"`
	DroppedTicks int `json:"dropped_ticks,omitempty"`
	LateTicks    int `json:"late_ticks,omitempty"`
	Wraps        int `json:"wraps,omitempty"`
	Closures     int `json:"closures,omitempty"`
}

// Total sums every injection class.
func (s InjectedStats) Total() int {
	return s.Busy + s.Inval + s.Revocations + s.DroppedTicks +
		s.LateTicks + s.Wraps + s.Closures
}

// Add accumulates another stats block into s.
func (s *InjectedStats) Add(o InjectedStats) {
	s.Busy += o.Busy
	s.Inval += o.Inval
	s.Revocations += o.Revocations
	s.DroppedTicks += o.DroppedTicks
	s.LateTicks += o.LateTicks
	s.Wraps += o.Wraps
	s.Closures += o.Closures
}

// File wraps a device handle and injects the profile's fault schedule.
// Like kgsl.File it is owned by a single sampling goroutine; every
// injection decision is drawn from the File's private sim.Rand in call
// order, so for a fixed (Profile, seed) the schedule replays
// bit-identically regardless of what any other goroutine does.
type File struct {
	// Obs, when non-nil, emits a fault.inject / fault.tick event per
	// injection (and nothing otherwise).
	Obs *obs.Tracer
	// Stats accumulates what was actually injected.
	Stats InjectedStats

	dev Device
	p   Profile
	rng *sim.Rand

	revoked    bool // reservation revoked; reads fail until ReserveSelected
	busyLeft   int  // remaining operations of the current EBUSY burst
	dropLeft   int  // remaining ticks of the current drop burst
	closedLeft int  // remaining operations of the current transient closure
}

// NewFile wraps dev in a fault plane driven by profile p and the given
// seed, injecting KGSL's errno sentinels: a Device is KGSL-shaped (it
// has Ioctl), so no other channel can carry a fault plane. Burst-shape
// fields are defaulted (BusyBurst≥1, CloseOps≥3, LateMax 2 ms). A
// zero/None profile is a pure passthrough that never touches the RNG.
func NewFile(dev Device, p Profile, seed int64) *File {
	if p.BusyBurst < 1 {
		p.BusyBurst = 1
	}
	if p.CloseOps < 3 {
		p.CloseOps = 3
	}
	if p.LateMax <= 0 {
		p.LateMax = 2 * sim.Millisecond
	}
	return &File{dev: dev, p: p, rng: sim.NewRand(seed)}
}

// faultMetric maps an injected fault kind onto its counter name. The
// counter namespace is the closed set of kinds this plane injects — a
// named mapping rather than ad-hoc concatenation, so the obsevent
// analyzer can hold call sites to registered constants.
func faultMetric(kind string) string {
	switch kind {
	case "closed":
		return mFaultClosed
	case "busy":
		return mFaultBusy
	case "inval":
		return mFaultInval
	case "revoked":
		return mFaultRevoked
	case "wrap":
		return mFaultWrap
	case "drop":
		return mFaultDrop
	case "late":
		return mFaultLate
	}
	return mFaultOther
}

func (f *File) emitOp(t sim.Time, op, kind string) {
	if f.Obs == nil {
		return
	}
	f.Obs.Emit(t, evInject, obs.Str("op", op), obs.Str("kind", kind))
	f.Obs.Metrics().Add(faultMetric(kind), 1)
}

// opFault draws the per-operation fault classes shared by every entry
// point: transient closure, EBUSY bursts, one-shot EINVAL. Draw order is
// fixed (close, busy, inval) and zero-probability classes draw nothing,
// so adding a class to a profile never perturbs the others' schedules
// less than necessary.
func (f *File) opFault(t sim.Time, op string) error {
	if f.closedLeft > 0 {
		f.closedLeft--
		f.emitOp(t, op, "closed")
		return kgsl.ErrClosed
	}
	if f.busyLeft > 0 {
		f.busyLeft--
		f.Stats.Busy++
		f.emitOp(t, op, "busy")
		return kgsl.ErrBusy
	}
	if f.p.PClose > 0 && f.rng.Bool(f.p.PClose) {
		f.closedLeft = f.p.CloseOps - 1
		f.Stats.Closures++
		f.emitOp(t, op, "closed")
		return kgsl.ErrClosed
	}
	if f.p.PBusy > 0 && f.rng.Bool(f.p.PBusy) {
		f.busyLeft = f.p.BusyBurst - 1
		f.Stats.Busy++
		f.emitOp(t, op, "busy")
		return kgsl.ErrBusy
	}
	if f.p.PInval > 0 && f.rng.Bool(f.p.PInval) {
		f.Stats.Inval++
		f.emitOp(t, op, "inval")
		return kgsl.ErrInval
	}
	return nil
}

// Ioctl injects per-operation faults, then delegates. A revoked
// reservation makes PERFCOUNTER_READ fail with kgsl.ErrNotReserved until
// the caller re-reserves via ReserveSelected.
func (f *File) Ioctl(t sim.Time, request uint32, arg any) error {
	if err := f.opFault(t, "ioctl"); err != nil {
		return err
	}
	if f.revoked && request == kgsl.IoctlPerfcounterRead {
		return kgsl.ErrNotReserved
	}
	return f.dev.Ioctl(t, request, arg)
}

// ReserveSelected injects per-operation faults, then delegates; on
// success it clears any outstanding revocation (the re-reservation path
// the sampler's retries exercise).
func (f *File) ReserveSelected(t sim.Time) error {
	if err := f.opFault(t, "reserve"); err != nil {
		return err
	}
	if err := f.dev.ReserveSelected(t); err != nil {
		return err
	}
	f.revoked = false
	return nil
}

// ReadSelected injects per-operation faults, revocation, and value wraps,
// then delegates. A revocation persists — every read fails with
// kgsl.ErrNotReserved until ReserveSelected succeeds — modeling another
// process PUTting the shared global counters out from under the attacker.
// A wrap truncates one counter value to its low 32 bits, modeling
// register saturation on real hardware.
func (f *File) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	var zero [adreno.NumSelected]uint64
	if err := f.opFault(t, "read"); err != nil {
		return zero, err
	}
	if f.revoked {
		return zero, kgsl.ErrNotReserved
	}
	if f.p.PRevoke > 0 && f.rng.Bool(f.p.PRevoke) {
		f.revoked = true
		f.Stats.Revocations++
		f.emitOp(t, "read", "revoked")
		return zero, kgsl.ErrNotReserved
	}
	vals, err := f.dev.ReadSelected(t)
	if err != nil {
		return vals, err
	}
	if f.p.PWrap > 0 && f.rng.Bool(f.p.PWrap) {
		i := f.rng.Intn(adreno.NumSelected)
		vals[i] &= 0xffffffff
		f.Stats.Wraps++
		f.emitOp(t, "read", "wrap")
	}
	return vals, nil
}

// TickFault draws the per-tick fault classes the sampler consults before
// each poll: drop (the tick is skipped entirely) or a late delay in
// (0, LateMax]. The sampler type-asserts for this method, so wrapping a
// device in a File is all it takes to perturb the polling clock.
func (f *File) TickFault(tick int, t sim.Time) (delay sim.Time, drop bool) {
	if f.dropLeft > 0 || (f.p.PDropTick > 0 && f.rng.Bool(f.p.PDropTick)) {
		if f.dropLeft == 0 {
			f.dropLeft = f.p.DropBurst
			if f.dropLeft < 1 {
				f.dropLeft = 1
			}
		}
		f.dropLeft--
		f.Stats.DroppedTicks++
		if f.Obs != nil {
			f.Obs.Emit(t, evTick, obs.Int("tick", tick), obs.Str("kind", "drop"))
			f.Obs.Metrics().Add(mFaultDrop, 1)
		}
		return 0, true
	}
	if f.p.PLateTick > 0 && f.rng.Bool(f.p.PLateTick) {
		d := 1 + sim.Time(f.rng.Float64()*float64(f.p.LateMax))
		if d > f.p.LateMax {
			d = f.p.LateMax
		}
		f.Stats.LateTicks++
		if f.Obs != nil {
			f.Obs.Emit(t, evTick, obs.Int("tick", tick), obs.Str("kind", "late"),
				obs.Int("delay_us", int(d)))
			f.Obs.Metrics().Add(mFaultLate, 1)
		}
		return d, false
	}
	return 0, false
}
