package adreno

import (
	"testing"
	"testing/quick"

	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

func TestSelectedCountersMatchTable1(t *testing.T) {
	want := map[string]CounterKey{
		"PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ":  {GroupLRZ, 13},
		"PERF_LRZ_FULL_8X8_TILES":          {GroupLRZ, 14},
		"PERF_LRZ_PARTIAL_8X8_TILES":       {GroupLRZ, 15},
		"PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ": {GroupLRZ, 18},
		"PERF_RAS_SUPERTILE_ACTIVE_CYCLES": {GroupRAS, 1},
		"PERF_RAS_SUPER_TILES":             {GroupRAS, 4},
		"PERF_RAS_8X4_TILES":               {GroupRAS, 5},
		"PERF_RAS_FULLY_COVERED_8X4_TILES": {GroupRAS, 8},
		"PERF_VPC_PC_PRIMITIVES":           {GroupVPC, 9},
		"PERF_VPC_SP_COMPONENTS":           {GroupVPC, 10},
		"PERF_VPC_LRZ_ASSIGN_PRIMITIVES":   {GroupVPC, 12},
	}
	if len(Selected) != NumSelected || len(Selected) != len(want) {
		t.Fatalf("Selected has %d counters", len(Selected))
	}
	for _, k := range Selected {
		s, ok := CounterString(k)
		if !ok {
			t.Fatalf("no string for %v", k)
		}
		if want[s] != k {
			t.Fatalf("counter %v has string %q, want key %v", k, s, want[s])
		}
	}
}

func TestGroupIDsMatchKGSLHeader(t *testing.T) {
	// Figure 9 of the paper quotes msm_kgsl.h: VPC=0x5, RAS=0x7, LRZ=0x19.
	if GroupVPC != 0x5 || GroupRAS != 0x7 || GroupLRZ != 0x19 {
		t.Fatalf("group IDs diverge from msm_kgsl.h: VPC=%#x RAS=%#x LRZ=%#x",
			GroupVPC, GroupRAS, GroupLRZ)
	}
}

func TestEnumerationDiscoversTable1(t *testing.T) {
	got := SelectOverdrawCounters()
	if len(got) != NumSelected {
		t.Fatalf("discovered %d counters, want %d", len(got), NumSelected)
	}
	set := map[CounterKey]bool{}
	for _, k := range got {
		set[k] = true
	}
	for _, k := range Selected {
		if !set[k] {
			t.Fatalf("enumeration missed %v", k)
		}
	}
}

func TestGroupsEnumeration(t *testing.T) {
	gs := Groups()
	if len(gs) < 10 {
		t.Fatalf("only %d groups enumerated", len(gs))
	}
	found := map[uint32]bool{}
	for _, g := range gs {
		found[g] = true
		if len(CountersInGroup(g)) == 0 {
			t.Fatalf("group %s has no counters", GroupName(g))
		}
	}
	for _, g := range []uint32{GroupLRZ, GroupRAS, GroupVPC} {
		if !found[g] {
			t.Fatalf("group %s missing", GroupName(g))
		}
	}
}

func TestGroupName(t *testing.T) {
	if GroupName(GroupLRZ) != "LRZ" {
		t.Fatal("LRZ name wrong")
	}
	if GroupName(0x42) != "GROUP_0x42" {
		t.Fatalf("unknown group name = %s", GroupName(0x42))
	}
}

func frameStats(prims, px uint64) render.FrameStats {
	return render.FrameStats{
		VisiblePrimAfterLRZ:  prims,
		VisiblePixelAfterLRZ: px,
		PCPrimitives:         prims + 2,
		TotalPixels:          px,
	}
}

func TestCountersMonotone(t *testing.T) {
	g := NewGPU(A650)
	g.Submit(Frame{Start: 1000, End: 3000, Stats: frameStats(100, 5000)})
	g.Submit(Frame{Start: 10000, End: 12000, Stats: frameStats(50, 2000)})
	k := CounterKey{GroupLRZ, LRZVisiblePrimAfterLRZ}
	prev := uint64(0)
	for ts := sim.Time(0); ts < 20000; ts += 100 {
		v := g.CounterValue(k, ts)
		if v < prev {
			t.Fatalf("counter decreased at t=%v: %d < %d", ts, v, prev)
		}
		prev = v
	}
}

func TestFrameDeltaVisibleAfterCompletion(t *testing.T) {
	g := NewGPU(A650)
	k := CounterKey{GroupLRZ, LRZVisiblePrimAfterLRZ}
	before := g.CounterValue(k, 500)
	g.Submit(Frame{Start: 1000, End: 2000, Stats: frameStats(123, 999)})
	after := g.CounterValue(k, 5000)
	if after-before != 123 {
		t.Fatalf("delta = %d, want 123", after-before)
	}
}

func TestMidFrameReadSeesPartialValue(t *testing.T) {
	g := NewGPU(A650)
	k := CounterKey{GroupLRZ, LRZVisiblePixelAfterLRZ}
	base := g.CounterValue(k, 0)
	g.Submit(Frame{Start: 1000, End: 3000, Stats: frameStats(10, 1000)})
	mid := g.CounterValue(k, 2000) - base
	if mid == 0 || mid == 1000 {
		t.Fatalf("mid-frame read = %d, want strictly partial", mid)
	}
	if mid != 500 {
		t.Fatalf("mid-frame linear ramp = %d, want 500", mid)
	}
}

func TestSubmitSerializesOverlap(t *testing.T) {
	g := NewGPU(A650)
	g.Submit(Frame{Start: 1000, End: 5000, Stats: frameStats(1, 1)})
	f := g.Submit(Frame{Start: 2000, End: 4000, Stats: frameStats(1, 1)})
	if f.Start != 5000 || f.End != 7000 {
		t.Fatalf("overlap not serialized: %+v", f)
	}
}

// readAt returns g's Table-1 snapshot at t.
func readAt(g *GPU, t sim.Time) [NumSelected]uint64 {
	var v [NumSelected]uint64
	g.ReadSelected(t, &v)
	return v
}

func TestIdleCountersFlat(t *testing.T) {
	// Paper Fig 5: counters unchanged while the screen is static.
	g := NewGPU(A650)
	g.Submit(Frame{Start: 100, End: 200, Stats: frameStats(10, 10)})
	v1 := readAt(g, 1000)
	v2 := readAt(g, 9_000_000)
	if v1 != v2 {
		t.Fatal("counters drifted while idle")
	}
}

func TestModelScalingDiffers(t *testing.T) {
	st := frameStats(100, 50000)
	st.SPComponents = 10000
	st.SupertileActiveCycles = 8000
	a := NewGPU(A540)
	b := NewGPU(A660)
	a.Submit(Frame{Start: 0, End: 100, Stats: st})
	b.Submit(Frame{Start: 0, End: 100, Stats: st})
	ka := readAt(a, 1000)
	kb := readAt(b, 1000)
	// SP components index 9 must differ between models (beyond base offset).
	da := ka[9] - readAt(NewGPU(A540), 0)[9]
	db := kb[9] - readAt(NewGPU(A660), 0)[9]
	if da == db {
		t.Fatalf("model scaling identical: %d vs %d", da, db)
	}
}

func TestUnknownCounterReadsZero(t *testing.T) {
	g := NewGPU(A650)
	if v := g.CounterValue(CounterKey{GroupSP, 0}, 1000); v != 0 {
		t.Fatalf("unselected counter = %d", v)
	}
}

func TestFillRateOrdering(t *testing.T) {
	if !(A540.FillRate() < A640.FillRate() && A640.FillRate() < A660.FillRate()) {
		t.Fatal("fill rates not increasing with generation")
	}
}

// Property: sum of two frames equals reading after both complete.
func TestAccumulationProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		g := NewGPU(A650)
		base := readAt(g, 0)
		g.Submit(Frame{Start: 10, End: 20, Stats: frameStats(uint64(a), uint64(a)*3)})
		g.Submit(Frame{Start: 30, End: 40, Stats: frameStats(uint64(b), uint64(b)*3)})
		got := readAt(g, 100)
		return got[0]-base[0] == uint64(a)+uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLastEnd(t *testing.T) {
	g := NewGPU(A650)
	if g.LastEnd() != 0 {
		t.Fatal("empty GPU LastEnd != 0")
	}
	g.Submit(Frame{Start: 5, End: 9, Stats: frameStats(1, 1)})
	if g.LastEnd() != 9 {
		t.Fatalf("LastEnd = %d", g.LastEnd())
	}
}
