package fault

import (
	"errors"

	"gpuleak/internal/kgsl"
)

// Taxonomy is the transient-error vocabulary of one side channel: the
// family the sampler's retries classify as recoverable, and the sentinel
// that makes it re-reserve. A /proc-file channel fails with its own errno
// family (EAGAIN on a contended read, ESTALE on a rotated file), so every
// channel supplies its own. The fault plane injects KGSL's only: a Device
// is KGSL-shaped, so no other channel can carry one. The zero value is
// not usable; the sampler reads it as KGSL(), and Valid tells it apart.
type Taxonomy struct {
	// Busy is the transient contention sentinel (EBUSY for KGSL).
	Busy error
	// Inval is the transient spurious-failure sentinel (EINVAL for KGSL).
	Inval error
	// NotReserved marks a revoked reservation; the sampler re-reserves on
	// it rather than merely re-reading.
	NotReserved error
	// Closed is the transient-closure sentinel (EBADF burst for KGSL).
	Closed error
}

// KGSL returns the taxonomy of the KGSL perf-counter channel — the
// original, the sentinels the fault plane injects, and the sampler's
// default where a Taxonomy is absent.
func KGSL() Taxonomy {
	return Taxonomy{
		Busy:        kgsl.ErrBusy,
		Inval:       kgsl.ErrInval,
		NotReserved: kgsl.ErrNotReserved,
		Closed:      kgsl.ErrClosed,
	}
}

// Valid reports whether every sentinel is populated.
func (x Taxonomy) Valid() bool {
	return x.Busy != nil && x.Inval != nil && x.NotReserved != nil && x.Closed != nil
}

// Retryable classifies a driver error as transient under this taxonomy —
// sentinel-based (errors.Is), never string-based, exactly like the
// original KGSL classification it generalizes.
func (x Taxonomy) Retryable(err error) bool {
	return errors.Is(err, x.Busy) ||
		errors.Is(err, x.Inval) ||
		errors.Is(err, x.NotReserved) ||
		errors.Is(err, x.Closed)
}
