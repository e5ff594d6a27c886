package adreno

import (
	"fmt"
	"slices"
	"sort"

	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

// Model identifies an Adreno GPU generation.
type Model int

// GPU models evaluated in the paper (§7.5).
const (
	A540 Model = 540
	A620 Model = 620
	A640 Model = 640
	A650 Model = 650
	A660 Model = 660
)

func (m Model) String() string { return fmt.Sprintf("Adreno %d", int(m)) }

// FillRate returns the simulated fill rate in pixels per microsecond; it
// determines how long a frame's counter ramp lasts and therefore how often
// a mid-frame read observes a split delta.
func (m Model) FillRate() float64 {
	switch m {
	case A540:
		return 2100
	case A620:
		return 3600
	case A640:
		return 4200
	case A650:
		return 5400
	case A660:
		return 6600
	default:
		return 3600
	}
}

// scale returns per-model counter scaling. Newer GPUs shade more vertex
// components per primitive (wider varyings) and count rasterizer cycles at
// different clock ratios; tile-coverage counters are architectural and do
// not scale. The attack's per-device models absorb these factors, exactly
// as the paper trains one classifier per device model.
func (m Model) scale() statsVec {
	s := onesVec()
	switch m {
	case A540:
		s[idxSPComponents] = 0.85
		s[idxSupertileCycles] = 1.30
	case A620:
		s[idxSPComponents] = 0.95
		s[idxSupertileCycles] = 1.15
	case A640:
		s[idxSPComponents] = 1.00
		s[idxSupertileCycles] = 1.10
	case A650:
		s[idxSPComponents] = 1.10
		s[idxSupertileCycles] = 1.00
	case A660:
		s[idxSPComponents] = 1.20
		s[idxSupertileCycles] = 0.90
	}
	return s
}

// Vector index of each selected counter, in Table-1 order (see Selected).
const (
	idxVisiblePrim = iota
	idxFullTiles8x8
	idxPartialTiles8x8
	idxVisiblePixel
	idxSupertileCycles
	idxSuperTiles
	idxTiles8x4
	idxFullyCovered8x4
	idxPCPrimitives
	idxSPComponents
	idxLRZAssignPrims
	numVec
)

type statsVec [numVec]float64

func onesVec() statsVec {
	var v statsVec
	for i := range v {
		v[i] = 1
	}
	return v
}

// vecOf flattens FrameStats into Table-1 counter order.
func vecOf(st render.FrameStats) [numVec]uint64 {
	return [numVec]uint64{
		st.VisiblePrimAfterLRZ,
		st.FullTiles8x8,
		st.PartialTiles8x8,
		st.VisiblePixelAfterLRZ,
		st.SupertileActiveCycles,
		st.SuperTiles,
		st.Tiles8x4,
		st.FullyCovered8x4,
		st.PCPrimitives,
		st.SPComponents,
		st.LRZAssignPrimitives,
	}
}

// SelectedIndex returns the vector index of a counter key, or -1.
func SelectedIndex(k CounterKey) int {
	for i, s := range Selected {
		if s == k {
			return i
		}
	}
	return -1
}

// Frame is one unit of GPU work: a render pass whose counter contributions
// accumulate linearly between Start and End. PID identifies the GL context
// that submitted the pass (0 = system compositor), which is what scopes
// the sanctioned GL_AMD_performance_monitor interface.
type Frame struct {
	Start, End sim.Time
	PID        int
	Stats      render.FrameStats
}

// Duration returns the draw time of the frame.
func (f Frame) Duration() sim.Time { return f.End - f.Start }

// GPU is the simulated Adreno: a frame timeline plus the derived global
// performance counter register file. Counter reads are O(log n) via a
// cumulative prefix per frame.
type GPU struct {
	model  Model
	frames []Frame
	// cum[i] = total contribution of frames[0..i-1] (completed).
	cum      [][numVec]uint64
	scaleVec statsVec
	base     [numVec]uint64
}

// NewGPU creates a GPU of the given model. Counters start from non-zero
// base values, as on real hardware where the system has been rendering
// since boot.
func NewGPU(model Model) *GPU {
	g := &GPU{model: model, scaleVec: model.scale()}
	g.cum = append(g.cum, [numVec]uint64{})
	for i := range g.base {
		// Deterministic per-model boot offset.
		g.base[i] = uint64(1e6) + uint64(int(model)*1000+i*137)
	}
	return g
}

// scaledVec applies the per-model counter scaling.
func (g *GPU) scaledVec(st render.FrameStats) [numVec]uint64 {
	raw := vecOf(st)
	var out [numVec]uint64
	for i, v := range raw {
		out[i] = uint64(float64(v) * g.scaleVec[i])
	}
	return out
}

// Grow makes room for n more frames, so that submitting them does not
// reallocate the timeline.
func (g *GPU) Grow(n int) {
	g.frames = slices.Grow(g.frames, n)
	g.cum = slices.Grow(g.cum, n)
}

// Submit appends a frame to the timeline. Frames must be submitted in
// start order; if a frame would overlap the previous one it is queued to
// begin when the GPU frees up, exactly as a real command processor does.
func (g *GPU) Submit(f Frame) Frame {
	if n := len(g.frames); n > 0 && f.Start < g.frames[n-1].End {
		d := f.Duration()
		f.Start = g.frames[n-1].End
		f.End = f.Start + d
	}
	if f.End <= f.Start {
		f.End = f.Start + 1
	}
	g.frames = append(g.frames, f)
	last := g.cum[len(g.cum)-1]
	v := g.scaledVec(f.Stats)
	var next [numVec]uint64
	for i := range next {
		next[i] = last[i] + v[i]
	}
	g.cum = append(g.cum, next)
	return f
}

// FrameCount reports the number of submitted frames.
func (g *GPU) FrameCount() int { return len(g.frames) }

// Frames exposes the timeline (read-only use).
func (g *GPU) Frames() []Frame { return g.frames }

// ReadSelected reads all Table-1 counters at simulated time t into out, in
// one snapshot (one ioctl with a multi-entry read buffer, as in Figure 10
// of the paper). The snapshot includes the partial contribution of an
// in-flight frame. This partial visibility is the physical source of the
// paper's "split" artifact (§5.1): a read that lands mid-draw observes
// only part of the frame's delta.
func (g *GPU) ReadSelected(t sim.Time, out *[NumSelected]uint64) {
	// Find the last frame with Start <= t.
	idx := sort.Search(len(g.frames), func(i int) bool { return g.frames[i].Start > t }) - 1
	if idx < 0 {
		*out = g.base
		return
	}
	cum, next := &g.cum[idx], &g.cum[idx+1]
	f := &g.frames[idx]
	if t >= f.End {
		for i := range out {
			out[i] = g.base[i] + next[i]
		}
		return
	}
	// Linear ramp within the frame; next-cum is exactly the scaled vector
	// Submit added for it.
	num := uint64(t - f.Start)
	den := uint64(f.End - f.Start)
	for i := range out {
		out[i] = g.base[i] + cum[i] + (next[i]-cum[i])*num/den
	}
}

// CounterValue reads one counter at simulated time t. Unknown counters
// read as a constant, as reserved countables do on hardware.
func (g *GPU) CounterValue(k CounterKey, t sim.Time) uint64 {
	i := SelectedIndex(k)
	if i < 0 {
		return 0
	}
	var vals [NumSelected]uint64
	g.ReadSelected(t, &vals)
	return vals[i]
}

// LastEnd returns the completion time of the final submitted frame.
func (g *GPU) LastEnd() sim.Time {
	if len(g.frames) == 0 {
		return 0
	}
	return g.frames[len(g.frames)-1].End
}
