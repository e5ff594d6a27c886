// Package kgsl simulates Qualcomm's Kernel Graphics Support Layer device
// file (/dev/kgsl-3d0), the interface the paper's unprivileged attacker
// uses to read global GPU performance counters via the ioctl() system
// call (§4). The request codes, struct layouts and GET/READ/PUT reservation
// protocol mirror msm_kgsl.h; time is passed explicitly because the
// simulation has no implicit wall clock.
//
// The device supports pluggable access-control policies and value
// obfuscators so that the paper's §9 mitigations (SELinux/RBAC whitelisting
// and counter obfuscation) are implementable without modifying callers.
package kgsl

import (
	"errors"
	"fmt"

	"gpuleak/internal/adreno"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
)

// KGSL ioctl encoding, as in the Linux UAPI headers.
const (
	iocWrite   = 1
	iocRead    = 2
	iocTypeBit = 8
	iocSizeBit = 16
	iocDirBit  = 30

	// KGSLIocType is the ioctl 'type' byte used by the KGSL driver.
	KGSLIocType = 0x09
)

// ioc builds a KGSL request code the way Linux's _IOC(dir, type, nr,
// size) does, with the type byte fixed to KGSLIocType.
func ioc(dir, nr, size uint32) uint32 {
	return dir<<iocDirBit | size<<iocSizeBit | KGSLIocType<<iocTypeBit | nr
}

// Request codes from msm_kgsl.h (Figure 9 of the paper). Struct sizes use
// the 64-bit kernel ABI layouts; TestRequestCodeEncoding pins each one.
var (
	// IoctlPerfcounterGet reserves a performance counter
	// (_IOWR(KGSL_IOC_TYPE, 0x38, struct kgsl_perfcounter_get)).
	IoctlPerfcounterGet = ioc(iocRead|iocWrite, 0x38, 16)
	// IoctlPerfcounterPut releases a reserved counter
	// (_IOW(KGSL_IOC_TYPE, 0x39, struct kgsl_perfcounter_put)).
	IoctlPerfcounterPut = ioc(iocWrite, 0x39, 16)
	// IoctlPerfcounterQuery lists countables in a group
	// (_IOWR(KGSL_IOC_TYPE, 0x3A, struct kgsl_perfcounter_query)).
	IoctlPerfcounterQuery = ioc(iocRead|iocWrite, 0x3A, 24)
	// IoctlPerfcounterRead block-reads counter values
	// (_IOWR(KGSL_IOC_TYPE, 0x3B, struct kgsl_perfcounter_read)).
	IoctlPerfcounterRead = ioc(iocRead|iocWrite, 0x3B, 16)
)

// PerfcounterGet mirrors struct kgsl_perfcounter_get.
type PerfcounterGet struct {
	GroupID   uint32
	Countable uint32
	OffsetLo  uint32 // register offset returned by the driver
	OffsetHi  uint32
}

// PerfcounterPut mirrors struct kgsl_perfcounter_put, including the
// __pad[2] tail the kernel reserves for binary compatibility — without it
// the struct is 8 bytes and the _IOW size bits (16) would encode a
// request code the real driver rejects with ENOTTY.
type PerfcounterPut struct {
	GroupID   uint32
	Countable uint32
	Pad       [2]uint32
}

// PerfcounterReadGroup mirrors struct kgsl_perfcounter_read_group: one
// entry of the read buffer; the driver writes Value.
type PerfcounterReadGroup struct {
	GroupID   uint32
	Countable uint32
	Value     uint64
}

// PerfcounterRead mirrors struct kgsl_perfcounter_read: a pointer to the
// rx buffer plus its length (the slice carries both).
type PerfcounterRead struct {
	Reads []PerfcounterReadGroup
}

// PerfcounterQuery mirrors struct kgsl_perfcounter_query.
type PerfcounterQuery struct {
	GroupID     uint32
	Countables  []uint32 // filled by the driver
	MaxCounters uint32
}

// ProcContext identifies the calling process the way the kernel sees it:
// Linux UID plus SELinux context. Ordinary apps run as untrusted_app.
type ProcContext struct {
	PID            int
	UID            int
	SELinuxContext string
}

// UntrustedApp returns the context of an unprivileged Android application.
func UntrustedApp(pid int) ProcContext {
	return ProcContext{PID: pid, UID: 10000 + pid%1000, SELinuxContext: "u:r:untrusted_app:s0"}
}

// Policy decides whether a process may read a performance counter. The
// default (nil) policy allows everything, which is the pre-disclosure
// Android behavior the paper exploits.
type Policy interface {
	AllowPerfcounterRead(ctx ProcContext, k adreno.CounterKey) error
}

// Obfuscator perturbs counter values before they reach user space; used by
// the §9.3 obfuscation mitigation. The zero (nil) obfuscator is identity.
type Obfuscator interface {
	Obfuscate(k adreno.CounterKey, value uint64, t sim.Time) uint64
}

// Errors returned by the simulated driver, mirroring kernel errnos.
// ErrBusy, ErrInval (when transient), ErrNotReserved and ErrClosed are the
// retryable family the fault plane (internal/fault) injects and the
// sampler's retry policy recovers from; the rest are terminal.
var (
	ErrPerm         = errors.New("kgsl: EPERM: operation not permitted")
	ErrBusy         = errors.New("kgsl: EBUSY: device or counter busy")
	ErrInval        = errors.New("kgsl: EINVAL: invalid argument")
	ErrNoEnt        = errors.New("kgsl: ENOENT: no such counter")
	ErrNotReserved  = errors.New("kgsl: EINVAL: counter not reserved (call PERFCOUNTER_GET first)")
	ErrBadRequest   = errors.New("kgsl: ENOTTY: unknown ioctl request")
	ErrClosed       = errors.New("kgsl: EBADF: file closed")
	ErrDeviceAccess = errors.New("kgsl: EACCES: open denied by SELinux policy")
)

// Device is the simulated /dev/kgsl-3d0.
type Device struct {
	gpu        *adreno.GPU
	policy     Policy
	obfuscator Obfuscator
	// ReadLatency models CPU scheduling delay between the attacker issuing
	// an ioctl and the kernel sampling the register. Nil means no delay.
	ReadLatency func(t sim.Time) sim.Time
	// OpenDenied simulates an SELinux policy that blocks opening the
	// device file entirely.
	OpenDenied bool

	// reserved counts the PERFCOUNTER_GETs held on each Table-1 counter,
	// by adreno.Selected index, so the per-tick block read consults no
	// map; reservations counts them for every other countable. Both are
	// device-wide: a PUT from any file releases a GET from any other.
	reserved     [adreno.NumSelected]int
	reservations map[adreno.CounterKey]int
	ioctlCount   uint64
	// metrics, when non-nil, receives per-request ioctl counts and an
	// error taxonomy (kgsl.ioctl.* / kgsl.err.*). Counters are pure
	// aggregates, so telemetry never perturbs the simulated timeline.
	metrics *obs.Metrics
}

// NewDevice wraps a GPU in a device file.
func NewDevice(gpu *adreno.GPU) *Device {
	return &Device{gpu: gpu, reservations: make(map[adreno.CounterKey]int)}
}

// SetPolicy installs an access-control policy (nil = allow all).
func (d *Device) SetPolicy(p Policy) { d.policy = p }

// SetObfuscator installs a counter-value obfuscator (nil = identity).
func (d *Device) SetObfuscator(o Obfuscator) { d.obfuscator = o }

// SetMetrics routes ioctl request counts and the driver error taxonomy
// into a telemetry registry (nil disables, the default).
func (d *Device) SetMetrics(m *obs.Metrics) { d.metrics = m }

// ioctlMetricName maps a request code onto its counter name; unknown
// codes are the attack-surface probes the §9 defenses care about.
func ioctlMetricName(request uint32) string {
	switch request {
	case IoctlPerfcounterGet:
		return "kgsl.ioctl.perfcounter_get"
	case IoctlPerfcounterPut:
		return "kgsl.ioctl.perfcounter_put"
	case IoctlPerfcounterRead:
		return "kgsl.ioctl.perfcounter_read"
	case IoctlPerfcounterQuery:
		return "kgsl.ioctl.perfcounter_query"
	default:
		return "kgsl.ioctl.unknown"
	}
}

// errMetricName classifies a driver error into its errno-taxonomy
// counter, mirroring the Errors block above.
func errMetricName(err error) string {
	switch {
	case errors.Is(err, ErrNotReserved):
		return "kgsl.err.not_reserved"
	case errors.Is(err, ErrPerm):
		return "kgsl.err.perm"
	case errors.Is(err, ErrBusy):
		return "kgsl.err.busy"
	case errors.Is(err, ErrInval):
		return "kgsl.err.inval"
	case errors.Is(err, ErrNoEnt):
		return "kgsl.err.noent"
	case errors.Is(err, ErrBadRequest):
		return "kgsl.err.bad_request"
	case errors.Is(err, ErrClosed):
		return "kgsl.err.closed"
	case errors.Is(err, ErrDeviceAccess):
		return "kgsl.err.device_access"
	default:
		return "kgsl.err.other"
	}
}

// GPU exposes the underlying GPU (victim-side wiring only).
func (d *Device) GPU() *adreno.GPU { return d.gpu }

// IoctlCount reports how many ioctl calls the device has served; the
// malware-detection discussion (§9.1) uses it.
func (d *Device) IoctlCount() uint64 { return d.ioctlCount }

// BusyPercentage models /sys/class/kgsl/kgsl-3d0/gpu_busy_percentage over
// the 100 ms window preceding t.
func (d *Device) BusyPercentage(t sim.Time) float64 {
	const window = 100 * sim.Millisecond
	t0 := t - window
	if t0 < 0 {
		t0 = 0
	}
	return 100 * d.gpu.BusyFraction(t0, t)
}

// File is an open handle on the device, bound to a process context.
type File struct {
	dev    *Device
	ctx    ProcContext
	closed bool
	// rd is ReadSelected's block-read request over reads, built once at
	// Open and reused on every tick.
	rd    PerfcounterRead
	reads [adreno.NumSelected]PerfcounterReadGroup
}

// Open opens the device file for a process. Unprivileged apps succeed
// unless an SELinux open-deny policy is active — the core enabler of the
// attack (§4): the device file must be accessible to user-space drivers.
func (d *Device) Open(ctx ProcContext) (*File, error) {
	if d.OpenDenied {
		return nil, ErrDeviceAccess
	}
	f := &File{dev: d, ctx: ctx}
	for i, k := range adreno.Selected {
		f.reads[i] = PerfcounterReadGroup{GroupID: k.Group, Countable: k.Countable}
	}
	f.rd.Reads = f.reads[:]
	return f, nil
}

// Close invalidates the handle.
func (f *File) Close() error {
	f.closed = true
	return nil
}

// Ioctl dispatches a request at simulated time t. arg must be a pointer to
// the request's struct type.
func (f *File) Ioctl(t sim.Time, request uint32, arg any) error {
	err := f.ioctl(t, request, arg)
	if m := f.dev.metrics; m != nil {
		m.Add(ioctlMetricName(request), 1)
		if err != nil {
			m.Add(errMetricName(err), 1)
		}
	}
	return err
}

func (f *File) ioctl(t sim.Time, request uint32, arg any) error {
	if f.closed {
		return ErrClosed
	}
	f.dev.ioctlCount++
	switch request {
	case IoctlPerfcounterGet:
		get, ok := arg.(*PerfcounterGet)
		if !ok {
			return ErrInval
		}
		return f.perfcounterGet(get)
	case IoctlPerfcounterPut:
		put, ok := arg.(*PerfcounterPut)
		if !ok {
			return ErrInval
		}
		return f.perfcounterPut(put)
	case IoctlPerfcounterRead:
		rd, ok := arg.(*PerfcounterRead)
		if !ok {
			return ErrInval
		}
		return f.perfcounterRead(t, rd)
	case IoctlPerfcounterQuery:
		q, ok := arg.(*PerfcounterQuery)
		if !ok {
			return ErrInval
		}
		return f.perfcounterQuery(q)
	default:
		return ErrBadRequest
	}
}

func (f *File) perfcounterGet(get *PerfcounterGet) error {
	k := adreno.CounterKey{Group: get.GroupID, Countable: get.Countable}
	if _, ok := adreno.CounterString(k); !ok {
		return ErrNoEnt
	}
	if j := adreno.SelectedIndex(k); j >= 0 {
		f.dev.reserved[j]++
	} else {
		f.dev.reservations[k]++
	}
	// Return a plausible register offset, as the real driver does.
	get.OffsetLo = 0xA000 + get.GroupID*0x100 + get.Countable*8
	get.OffsetHi = get.OffsetLo + 4
	return nil
}

func (f *File) perfcounterPut(put *PerfcounterPut) error {
	k := adreno.CounterKey{Group: put.GroupID, Countable: put.Countable}
	j := adreno.SelectedIndex(k)
	if f.dev.reservedCount(k, j) == 0 {
		return ErrNotReserved
	}
	if j >= 0 {
		f.dev.reserved[j]--
	} else {
		f.dev.reservations[k]--
	}
	return nil
}

// reservedCount returns how many PERFCOUNTER_GETs hold k, whose Table-1
// index is j (-1 outside Table 1).
func (d *Device) reservedCount(k adreno.CounterKey, j int) int {
	if j >= 0 {
		return d.reserved[j]
	}
	return d.reservations[k]
}

func (f *File) perfcounterRead(t sim.Time, rd *PerfcounterRead) error {
	if len(rd.Reads) == 0 {
		return ErrInval
	}
	d := f.dev
	if d.ReadLatency != nil {
		t = d.ReadLatency(t)
	}
	// One register snapshot serves every entry of the block read.
	var vec [adreno.NumSelected]uint64
	d.gpu.ReadSelected(t, &vec)
	reads, selected := rd.Reads, adreno.Selected
	policy, obfuscator := d.policy, d.obfuscator
	for i := range reads {
		e := &reads[i]
		k := adreno.CounterKey{Group: e.GroupID, Countable: e.Countable}
		// ReadSelected lays entry i out as Table-1 counter i; any other
		// buffer takes the linear lookup.
		j := i
		if j >= len(selected) || selected[j] != k {
			j = adreno.SelectedIndex(k)
		}
		if d.reservedCount(k, j) == 0 {
			return ErrNotReserved
		}
		if policy != nil {
			if err := policy.AllowPerfcounterRead(f.ctx, k); err != nil {
				return fmt.Errorf("%w (counter %v)", err, k)
			}
		}
		var v uint64 // counters outside Table 1 read 0, as in CounterValue
		if j >= 0 {
			v = vec[j]
		}
		if obfuscator != nil {
			v = obfuscator.Obfuscate(k, v, t)
		}
		e.Value = v
	}
	return nil
}

func (f *File) perfcounterQuery(q *PerfcounterQuery) error {
	cs := adreno.CountersInGroup(q.GroupID)
	if len(cs) == 0 {
		return ErrNoEnt
	}
	n := len(cs)
	if q.MaxCounters > 0 && int(q.MaxCounters) < n {
		n = int(q.MaxCounters)
	}
	q.Countables = append(q.Countables[:0], cs[:n]...)
	return nil
}

// ReserveSelected issues PERFCOUNTER_GET for every Table-1 counter,
// returning an error on the first failure. This is the attacker's setup
// step (Figure 10).
func (f *File) ReserveSelected(t sim.Time) error {
	for _, k := range adreno.Selected {
		get := PerfcounterGet{GroupID: k.Group, Countable: k.Countable}
		if err := f.Ioctl(t, IoctlPerfcounterGet, &get); err != nil {
			return fmt.Errorf("reserving %v: %w", k, err)
		}
	}
	return nil
}

// ReadSelected block-reads every Table-1 counter in one ioctl and returns
// the values in adreno.Selected order. It allocates nothing: the request
// buffer belongs to the file, and the values go straight into the named
// result.
func (f *File) ReadSelected(t sim.Time) (out [adreno.NumSelected]uint64, err error) {
	if err = f.Ioctl(t, IoctlPerfcounterRead, &f.rd); err != nil {
		return out, err
	}
	for i := range out {
		out[i] = f.reads[i].Value
	}
	return out, nil
}
