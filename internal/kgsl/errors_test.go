package kgsl

import (
	"errors"
	"testing"

	"gpuleak/internal/adreno"
)

// The attack loop (Figure 10) distinguishes driver failures by errno
// identity: ENOTTY means a drifted request code, EINVAL a counter that
// was never reserved, EBADF a stale handle, EACCES a mitigated device.
// These tests pin the exact error values those branches rely on.

func TestIoctlUnknownRequestCode(t *testing.T) {
	f, err := newTestDevice().Open(UntrustedApp(1))
	if err != nil {
		t.Fatal(err)
	}
	// A request code with the right type byte but an unassigned nr still
	// has to be rejected.
	bogus := ioc(iocRead|iocWrite, 0x7F, 16)
	if err := f.Ioctl(0, bogus, &PerfcounterGet{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown request code: got %v, want ErrBadRequest", err)
	}
	if err := f.Ioctl(0, 0, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero request code: got %v, want ErrBadRequest", err)
	}
}

func TestIoctlWrongArgType(t *testing.T) {
	f, err := newTestDevice().Open(UntrustedApp(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		request uint32
		arg     any
	}{
		{"get-with-put", IoctlPerfcounterGet, &PerfcounterPut{}},
		{"put-with-get", IoctlPerfcounterPut, &PerfcounterGet{}},
		{"read-with-query", IoctlPerfcounterRead, &PerfcounterQuery{}},
		{"query-with-read", IoctlPerfcounterQuery, &PerfcounterRead{}},
		{"get-by-value", IoctlPerfcounterGet, PerfcounterGet{}},
		{"nil-arg", IoctlPerfcounterRead, nil},
	}
	for _, c := range cases {
		if err := f.Ioctl(0, c.request, c.arg); !errors.Is(err, ErrInval) {
			t.Errorf("%s: got %v, want ErrInval", c.name, err)
		}
	}
}

func TestReadSelectedBeforeReserveSelected(t *testing.T) {
	f, err := newTestDevice().Open(UntrustedApp(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadSelected(1000); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("block read before PERFCOUNTER_GET: got %v, want ErrNotReserved", err)
	}
	// After the setup step, the same block read succeeds.
	if err := f.ReserveSelected(0); err != nil {
		t.Fatalf("ReserveSelected: %v", err)
	}
	if _, err := f.ReadSelected(1000); err != nil {
		t.Fatalf("ReadSelected after reserve: %v", err)
	}
}

func TestReadThroughClosedFile(t *testing.T) {
	f, err := newTestDevice().Open(UntrustedApp(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := f.ReadSelected(1000); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadSelected on closed file: got %v, want ErrClosed", err)
	}
	if err := f.ReserveSelected(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReserveSelected on closed file: got %v, want ErrClosed", err)
	}
	q := PerfcounterQuery{GroupID: adreno.GroupLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed file: got %v, want ErrClosed", err)
	}
}

func TestOpenDeniedBySELinuxPolicy(t *testing.T) {
	dev := newTestDevice()
	dev.OpenDenied = true
	if _, err := dev.Open(UntrustedApp(1)); !errors.Is(err, ErrDeviceAccess) {
		t.Fatalf("open with SELinux deny: got %v, want ErrDeviceAccess", err)
	}
	// A handle opened before the policy landed keeps working: the deny is
	// enforced at open() like the real neverallow rule.
	dev.OpenDenied = false
	f, err := dev.Open(UntrustedApp(1))
	if err != nil {
		t.Fatal(err)
	}
	dev.OpenDenied = true
	if err := f.ReserveSelected(0); err != nil {
		t.Fatalf("existing handle after open-deny: %v", err)
	}
}
