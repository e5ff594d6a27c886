package attack

import (
	"testing"

	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

func TestSegmentTraceMatchesOnlineOnCleanInput(t *testing.T) {
	m := tinyModel()
	ds := []trace.Delta{
		{At: ms(100), V: keyA()},
		{At: ms(400), V: keyB()},
		{At: ms(700), V: keyA()},
	}
	res := SegmentTrace(m, ds, 8*sim.Millisecond, OnlineOptions{})
	if text := keysText(res.Keys); text != "aba" {
		t.Fatalf("offline text = %q", text)
	}
	if res.Unexplained != 0 {
		t.Fatalf("unexplained = %d", res.Unexplained)
	}
}

func keysText(ks []InferredKey) string {
	rs := make([]rune, len(ks))
	for i, k := range ks {
		rs[i] = k.R
	}
	return string(rs)
}

// The paper's greedy failure mode: a noise fragment right before a split
// key press. The greedy engine may pair the noise fragment with the first
// key fragment; the whole-trace DP finds the segmentation that explains
// all three.
func TestSegmentTraceFixesGreedyPairing(t *testing.T) {
	m := tinyModel()
	var noiseFrag trace.Vec
	noiseFrag[0], noiseFrag[1], noiseFrag[2], noiseFrag[3] = 45, 17, 4, 450 // hide fragment (half)
	half := keyA().Scale(0.5)
	ds := []trace.Delta{
		{At: ms(100), V: noiseFrag},
		{At: ms(108), V: noiseFrag}, // together: the hide signature
		{At: ms(116), V: half},
		{At: ms(124), V: half}, // together: key 'a'
	}
	res := SegmentTrace(m, ds, 8*sim.Millisecond, OnlineOptions{})
	if text := keysText(res.Keys); text != "a" {
		t.Fatalf("offline text = %q, want \"a\"", text)
	}
}

func TestSegmentTraceCountsResidualNoise(t *testing.T) {
	m := tinyModel()
	var junk trace.Vec
	junk[0], junk[3] = 9999, 123456
	ds := []trace.Delta{
		{At: ms(100), V: keyA()},
		{At: ms(500), V: junk},
	}
	res := SegmentTrace(m, ds, 8*sim.Millisecond, OnlineOptions{})
	if text := keysText(res.Keys); text != "a" {
		t.Fatalf("text = %q", text)
	}
	if res.Unexplained != 1 {
		t.Fatalf("unexplained = %d, want 1", res.Unexplained)
	}
}

func TestSegmentTraceNoDuplicateFromPass2(t *testing.T) {
	// A split key handled by the greedy pass must not be re-inferred by
	// pass 2 from its leftover first fragment.
	m := tinyModel()
	half := keyA().Scale(0.5)
	ds := []trace.Delta{
		{At: ms(100), V: half},
		{At: ms(108), V: half},
		{At: ms(500), V: keyB()},
	}
	res := SegmentTrace(m, ds, 8*sim.Millisecond, OnlineOptions{})
	if text := keysText(res.Keys); text != "ab" {
		t.Fatalf("text = %q, want \"ab\"", text)
	}
}

func TestSegmentClusterBailsOnStorms(t *testing.T) {
	m := tinyModel()
	var ds []trace.Delta
	var junk trace.Vec
	junk[0], junk[3] = 7777, 54321
	for i := 0; i < 30; i++ {
		ds = append(ds, trace.Delta{At: ms(100 + int64(i)*4), V: junk})
	}
	res := SegmentTrace(m, ds, 8*sim.Millisecond, OnlineOptions{})
	if len(res.Keys) != 0 {
		t.Fatalf("storm produced keys: %q", keysText(res.Keys))
	}
	if res.Unexplained == 0 {
		t.Fatal("storm not reported as unexplained")
	}
}
