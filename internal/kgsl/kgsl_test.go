package kgsl

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

func newTestDevice() *Device {
	gpu := adreno.NewGPU(adreno.A650)
	gpu.Submit(adreno.Frame{Start: 1000, End: 2000, Stats: render.FrameStats{
		VisiblePrimAfterLRZ: 1637, VisiblePixelAfterLRZ: 90000,
		PCPrimitives: 1700, TotalPixels: 90000,
	}})
	return NewDevice(gpu)
}

func openTestFile(t *testing.T, d *Device) *File {
	t.Helper()
	f, err := d.Open(UntrustedApp(1234))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return f
}

// abiMember is one member of a msm_kgsl.h struct under the 64-bit kernel
// ABI, and the Go field that mirrors it. A slice field mirrors two
// members: the user pointer and the u32 element count after it.
type abiMember struct {
	goField     string
	size, align uintptr
}

// abiSize lays members out under the 64-bit kernel ABI: each member
// aligns to its own alignment, and the struct pads to its widest one.
func abiSize(members []abiMember) uintptr {
	var off, widest uintptr = 0, 1
	for _, m := range members {
		off = (off+m.align-1)/m.align*m.align + m.size
		widest = max(widest, m.align)
	}
	return (off + widest - 1) / widest * widest
}

// TestRequestCodeEncoding pins every request code to msm_kgsl.h. Each row
// decodes the code's dir, type, nr and size bits, and compares the size
// with the 64-bit ABI layout of the struct the code marshals, written
// out member by member. reflect then checks that the Go mirror has
// exactly those fields, each as wide as its members, so a drifted size
// argument or a field added to a struct fails here.
func TestRequestCodeEncoding(t *testing.T) {
	const (
		iow  = 1 // _IOC_WRITE
		iowr = 3 // _IOC_READ | _IOC_WRITE
	)
	u32 := func(f string) abiMember { return abiMember{f, 4, 4} }
	userPtr := func(f string) abiMember { return abiMember{f, 8, 8} }
	rows := []struct {
		name    string
		code    uint32
		dir, nr uint32
		mirror  any
		members []abiMember
	}{
		{"GET", IoctlPerfcounterGet, iowr, 0x38, PerfcounterGet{},
			[]abiMember{u32("GroupID"), u32("Countable"), u32("OffsetLo"), u32("OffsetHi")}},
		{"PUT", IoctlPerfcounterPut, iow, 0x39, PerfcounterPut{},
			[]abiMember{u32("GroupID"), u32("Countable"), {"Pad", 8, 4}}},
		{"QUERY", IoctlPerfcounterQuery, iowr, 0x3A, PerfcounterQuery{},
			[]abiMember{u32("GroupID"), userPtr("Countables"), u32("Countables"), u32("MaxCounters")}},
		{"READ", IoctlPerfcounterRead, iowr, 0x3B, PerfcounterRead{},
			[]abiMember{userPtr("Reads"), u32("Reads")}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			dir, size := r.code>>30, r.code>>16&0x3FFF
			typ, nr := r.code>>8&0xFF, r.code&0xFF
			if dir != r.dir || typ != 0x09 || nr != r.nr {
				t.Errorf("code %#x decodes to dir %d type %#x nr %#x, want dir %d type 0x09 nr %#x",
					r.code, dir, typ, nr, r.dir, r.nr)
			}
			if want := abiSize(r.members); uintptr(size) != want {
				t.Errorf("code %#x declares size %d, but the struct is %d bytes under the 64-bit ABI",
					r.code, size, want)
			}

			st := reflect.TypeOf(r.mirror)
			var fields []string
			widths := map[string]uintptr{}
			for _, m := range r.members {
				if len(fields) == 0 || fields[len(fields)-1] != m.goField {
					fields = append(fields, m.goField)
				}
				widths[m.goField] += m.size
			}
			var got []string
			for i := range st.NumField() {
				f := st.Field(i)
				got = append(got, f.Name)
				// A slice stands for the pointer + count pair its row sizes.
				w, ok := widths[f.Name]
				if ok && f.Type.Kind() != reflect.Slice && f.Type.Size() != w {
					t.Errorf("%s.%s is %d bytes, the row says %d", st.Name(), f.Name, f.Type.Size(), w)
				}
			}
			if !slices.Equal(got, fields) {
				t.Errorf("%s has fields %v, the row lays out %v", st.Name(), got, fields)
			}
		})
	}
}

func TestUnprivilegedOpenSucceeds(t *testing.T) {
	d := newTestDevice()
	f, err := d.Open(UntrustedApp(1))
	if err != nil {
		t.Fatalf("unprivileged open failed: %v", err)
	}
	defer f.Close()
}

func TestOpenDeniedBySELinux(t *testing.T) {
	d := newTestDevice()
	d.OpenDenied = true
	if _, err := d.Open(UntrustedApp(1)); !errors.Is(err, ErrDeviceAccess) {
		t.Fatalf("want ErrDeviceAccess, got %v", err)
	}
}

func TestReadRequiresReservation(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}}}
	if err := f.Ioctl(5000, IoctlPerfcounterRead, &rd); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("want ErrNotReserved, got %v", err)
	}
}

func TestGetReadPutCycle(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)

	get := PerfcounterGet{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); err != nil {
		t.Fatalf("GET: %v", err)
	}
	if get.OffsetLo == 0 {
		t.Fatal("GET did not return a register offset")
	}

	rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}}}
	if err := f.Ioctl(5000, IoctlPerfcounterRead, &rd); err != nil {
		t.Fatalf("READ: %v", err)
	}
	if rd.Reads[0].Value == 0 {
		t.Fatal("READ returned zero value")
	}

	put := PerfcounterPut{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterPut, &put); err != nil {
		t.Fatalf("PUT: %v", err)
	}
	// After PUT the counter is no longer reserved.
	if err := f.Ioctl(6000, IoctlPerfcounterRead, &rd); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("read after PUT: %v", err)
	}
}

func TestGetUnknownCounter(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	get := PerfcounterGet{GroupID: 0x33, Countable: 99}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("want ErrNoEnt, got %v", err)
	}
}

func TestPutWithoutGet(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	put := PerfcounterPut{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterPut, &put); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("want ErrNotReserved, got %v", err)
	}
}

func TestReadSeesFrameDelta(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	before, err := f.ReadSelected(500) // before the frame
	if err != nil {
		t.Fatal(err)
	}
	after, err := f.ReadSelected(3000) // after the frame
	if err != nil {
		t.Fatal(err)
	}
	if d := after[0] - before[0]; d != 1637 {
		t.Fatalf("VISIBLE_PRIM delta = %d, want 1637", d)
	}
}

func TestReadLatencyShiftsSample(t *testing.T) {
	d := newTestDevice()
	d.ReadLatency = func(t sim.Time) sim.Time { return t + 1500 } // lands mid/after frame
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	// Request at t=0 actually samples at t=1500, i.e. mid-frame: the value
	// must reflect a partial draw.
	v, err := f.ReadSelected(0)
	if err != nil {
		t.Fatal(err)
	}
	d.ReadLatency = nil
	base, _ := f.ReadSelected(0)
	delta := v[0] - base[0]
	if delta == 0 || delta == 1637 {
		t.Fatalf("latency-shifted read delta = %d, want partial", delta)
	}
}

type denyLRZ struct{}

func (denyLRZ) AllowPerfcounterRead(ctx ProcContext, k adreno.CounterKey) error {
	if k.Group == adreno.GroupLRZ && ctx.SELinuxContext == "u:r:untrusted_app:s0" {
		return ErrPerm
	}
	return nil
}

func TestPolicyBlocksRead(t *testing.T) {
	d := newTestDevice()
	d.SetPolicy(denyLRZ{})
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadSelected(5000); !errors.Is(err, ErrPerm) {
		t.Fatalf("policy not enforced: %v", err)
	}
}

type plusOne struct{}

func (plusOne) Obfuscate(k adreno.CounterKey, v uint64, t sim.Time) uint64 { return v + 1 }

func TestObfuscatorApplied(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	clean, _ := f.ReadSelected(5000)
	d.SetObfuscator(plusOne{})
	fuzzed, _ := f.ReadSelected(5000)
	for i := range clean {
		if fuzzed[i] != clean[i]+1 {
			t.Fatalf("obfuscator not applied at %d: %d vs %d", i, fuzzed[i], clean[i])
		}
	}
}

func TestQueryCountables(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	q := PerfcounterQuery{GroupID: adreno.GroupLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range q.Countables {
		if c == 13 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query missing countable 13: %v", q.Countables)
	}
	// MaxCounters truncates.
	q2 := PerfcounterQuery{GroupID: adreno.GroupLRZ, MaxCounters: 2}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q2); err != nil {
		t.Fatal(err)
	}
	if len(q2.Countables) != 2 {
		t.Fatalf("MaxCounters not honored: %d", len(q2.Countables))
	}
}

func TestUnknownRequest(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.Ioctl(0, 0xDEAD, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

func TestWrongArgType(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.Ioctl(0, IoctlPerfcounterGet, &PerfcounterRead{}); !errors.Is(err, ErrInval) {
		t.Fatalf("want ErrInval, got %v", err)
	}
}

func TestClosedFile(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	f.Close()
	get := PerfcounterGet{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestEmptyReadBuffer(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.Ioctl(0, IoctlPerfcounterRead, &PerfcounterRead{}); !errors.Is(err, ErrInval) {
		t.Fatalf("want ErrInval, got %v", err)
	}
}

func TestIoctlCountTracksCalls(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	n0 := d.IoctlCount()
	for i := 0; i < 10; i++ {
		if _, err := f.ReadSelected(sim.Time(i) * 8000); err != nil {
			t.Fatal(err)
		}
	}
	if d.IoctlCount()-n0 != 10 {
		t.Fatalf("ioctl count delta = %d, want 10", d.IoctlCount()-n0)
	}
}

// TestReservationRefcount pins the GET/PUT refcount on every path a read
// entry takes: a Table-1 counter at its own index (ReadSelected's
// layout), a Table-1 counter off its index (the linear lookup), and a
// countable outside Table 1 (the map; it reads 0). Each row GETs twice,
// PUTs once (the read still succeeds) and PUTs again (the read fails).
// Reservations are device-wide, so in the last row another file's PUTs
// revoke the reader's GETs.
func TestReservationRefcount(t *testing.T) {
	cases := []struct {
		name     string
		k        adreno.CounterKey
		otherPut bool
	}{
		{"table-1 at its index", adreno.Selected[0], false},
		{"table-1 off its index", adreno.CounterKey{Group: adreno.GroupLRZ, Countable: adreno.LRZVisiblePixelAfterLRZ}, false},
		{"outside table 1", adreno.CounterKey{Group: adreno.GroupLRZ, Countable: 17}, false},
		{"device-wide", adreno.Selected[0], true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newTestDevice()
			f := openTestFile(t, d)
			putter := f
			if c.otherPut {
				var err error
				if putter, err = d.Open(UntrustedApp(4321)); err != nil {
					t.Fatal(err)
				}
			}
			get := PerfcounterGet{GroupID: c.k.Group, Countable: c.k.Countable}
			for i := 0; i < 2; i++ {
				if err := f.Ioctl(0, IoctlPerfcounterGet, &get); err != nil {
					t.Fatal(err)
				}
			}
			put := PerfcounterPut{GroupID: c.k.Group, Countable: c.k.Countable}
			rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: c.k.Group, Countable: c.k.Countable}}}
			if err := putter.Ioctl(0, IoctlPerfcounterPut, &put); err != nil {
				t.Fatal(err)
			}
			// One reference remains: the read succeeds with the counter's
			// value (0 outside Table 1).
			if err := f.Ioctl(5000, IoctlPerfcounterRead, &rd); err != nil {
				t.Fatalf("read after single PUT of double GET: %v", err)
			}
			want := d.GPU().CounterValue(c.k, 5000)
			if want == 0 && adreno.SelectedIndex(c.k) >= 0 {
				t.Fatalf("%v reads 0 on the test device; the row checks nothing", c.k)
			}
			if got := rd.Reads[0].Value; got != want {
				t.Fatalf("read %v = %d, want %d", c.k, got, want)
			}
			if err := putter.Ioctl(0, IoctlPerfcounterPut, &put); err != nil {
				t.Fatal(err)
			}
			if err := f.Ioctl(6000, IoctlPerfcounterRead, &rd); !errors.Is(err, ErrNotReserved) {
				t.Fatalf("read after final PUT: %v, want ErrNotReserved", err)
			}
		})
	}
}

func TestQueryUnknownGroup(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	q := PerfcounterQuery{GroupID: 0x77}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q); err == nil {
		t.Fatal("unknown group query succeeded")
	}
}

func TestMultiCounterReadSingleIoctl(t *testing.T) {
	// Figure 10: one blockread ioctl fills a multi-entry buffer.
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	n0 := d.IoctlCount()
	if _, err := f.ReadSelected(5000); err != nil {
		t.Fatal(err)
	}
	if d.IoctlCount()-n0 != 1 {
		t.Fatalf("multi-counter read used %d ioctls, want 1", d.IoctlCount()-n0)
	}
}
