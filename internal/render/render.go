// Package render implements a tile-based (binning) GPU rendering model of
// the kind used by Qualcomm Adreno hardware. Scenes are composed of layers
// drawn back-to-front; each layer contains rectangular primitives (solid
// quads and tessellated glyph strokes). Rendering a frame produces the
// exact per-frame statistics that feed the Adreno performance counters the
// paper's attack reads: LRZ occlusion-culling results, rasterizer tile
// coverage, and vertex-pipeline primitive counts.
//
// The renderer is analytic: tile coverage is computed with closed-form
// grid arithmetic (geom.Tiles) rather than per-pixel iteration, which makes
// full-evaluation experiment sweeps cheap while remaining exact for
// axis-aligned geometry.
package render

import (
	"fmt"
	"sort"

	"gpuleak/internal/geom"
	"gpuleak/internal/glyph"
)

// Prim is a drawable primitive: an axis-aligned quad with an associated
// tessellation (glyph strokes carry the triangles of their curved
// segments). Opaque primitives participate in LRZ occlusion.
type Prim struct {
	Rect   geom.Rect
	Opaque bool
	Tris   int // tessellated triangle count, >= 2 for a quad
	Verts  int // tessellated vertex count, >= 4 for a quad
}

// Quad returns a plain rectangle primitive (2 triangles, 4 vertices).
func Quad(r geom.Rect, opaque bool) Prim {
	return Prim{Rect: r, Opaque: opaque, Tris: 2, Verts: 4}
}

// GlyphPrims tessellates glyph g into primitives inside box. Each stroke
// becomes a quad; the triangles of curved segments are attached to the
// first stroke (they share its coverage), matching how text renderers
// batch a glyph into one draw.
func GlyphPrims(g glyph.Glyph, box geom.Rect) []Prim {
	rects := g.StrokeRects(box)
	if len(rects) == 0 {
		return nil
	}
	tess := glyph.TessFactor(box.H())
	out := make([]Prim, 0, len(rects))
	for i, r := range rects {
		p := Prim{Rect: r, Opaque: false, Tris: 2, Verts: 4}
		if i == 0 && g.Curves > 0 {
			p.Tris += g.Curves * tess
			p.Verts += g.Curves * (tess + 2)
		}
		out = append(out, p)
	}
	return out
}

// Layer is a z-ordered group of primitives (an Android rendering layer:
// window background, keyboard surface, popup surface, ...).
type Layer struct {
	Z     int
	Name  string
	Prims []Prim
}

// Scene is a full screen description. Layers are drawn in ascending Z.
type Scene struct {
	Screen geom.Size
	Layers []Layer
}

// Add inserts a layer keeping ascending Z order (stable for equal Z).
func (s *Scene) Add(l Layer) {
	s.Layers = append(s.Layers, l)
	sort.SliceStable(s.Layers, func(i, j int) bool { return s.Layers[i].Z < s.Layers[j].Z })
}

// Clone returns a deep-enough copy: layer slice is copied, prim slices are
// shared (prims are immutable by convention).
func (s *Scene) Clone() Scene {
	out := Scene{Screen: s.Screen, Layers: make([]Layer, len(s.Layers))}
	copy(out.Layers, s.Layers)
	return out
}

// Bounds returns the full-screen rectangle.
func (s *Scene) Bounds() geom.Rect { return geom.XYWH(0, 0, s.Screen.W, s.Screen.H) }

// The Adreno 6xx tile geometry: 8x8 low resolution Z tiles, 8x4
// rasterizer tiles and 32x32 binning supertiles.
const (
	lrzTileW, lrzTileH = 8, 8
	rasTileW, rasTileH = 8, 4
	superW, superH     = 32, 32
	// vertexComponents is the shaded components per vertex (position +
	// color + uv).
	vertexComponents = 8
)

// FrameStats are the per-frame deltas of every modeled performance
// counter. Field order mirrors Table 1 of the paper.
type FrameStats struct {
	// LRZ group.
	VisiblePrimAfterLRZ  uint64 // ID 13: triangles surviving LRZ culling
	FullTiles8x8         uint64 // ID 14: fully covered 8x8 tiles (per visible prim)
	PartialTiles8x8      uint64 // ID 15: partially covered 8x8 tiles
	VisiblePixelAfterLRZ uint64 // ID 18: pixels surviving LRZ culling

	// RAS group.
	SupertileActiveCycles uint64 // ID 1: rasterizer supertile cycle estimate
	SuperTiles            uint64 // ID 4: supertiles touched
	Tiles8x4              uint64 // ID 5: 8x4 rasterizer tiles touched
	FullyCovered8x4       uint64 // ID 8: fully covered 8x4 tiles

	// VPC group.
	PCPrimitives        uint64 // ID 9: primitives submitted to the PC
	SPComponents        uint64 // ID 10: vertex components shaded
	LRZAssignPrimitives uint64 // ID 12: opaque primitives assigned by LRZ

	// Auxiliary (not a Table-1 counter; drives draw-duration and the
	// coarse desktop-GPU substrate).
	TotalPixels uint64
}

// IsZero reports whether no work was recorded.
func (f FrameStats) IsZero() bool { return f == FrameStats{} }

func (f FrameStats) String() string {
	return fmt.Sprintf("prims=%d px=%d full8=%d part8=%d", f.VisiblePrimAfterLRZ,
		f.VisiblePixelAfterLRZ, f.FullTiles8x8, f.PartialTiles8x8)
}

// Render draws the portion of the scene inside damage and returns the
// frame statistics. Rendering only the damaged region models Android's
// partial-update path (EGL_KHR_partial_update): an unchanged screen incurs
// no GPU work at all, which is why the paper's counters stay flat between
// user inputs.
func Render(s *Scene, damage geom.Rect) FrameStats {
	var stats FrameStats
	damage = damage.Intersect(s.Bounds())
	if damage.Empty() {
		return stats
	}

	// Gather draw list in back-to-front order, clipped to the damage rect.
	type drawn struct {
		clip   geom.Rect
		opaque bool
		tris   int
		verts  int
	}
	var list []drawn
	for _, l := range s.Layers {
		for _, p := range l.Prims {
			clip := p.Rect.Intersect(damage)
			if clip.Empty() {
				continue
			}
			list = append(list, drawn{clip: clip, opaque: p.Opaque, tris: p.Tris, verts: p.Verts})
		}
	}

	for i, d := range list {
		// Vertex pipeline (VPC) counters see every submitted primitive,
		// before LRZ culling.
		stats.PCPrimitives += uint64(d.tris)
		stats.SPComponents += uint64(d.verts * vertexComponents)
		if d.opaque {
			stats.LRZAssignPrimitives += uint64(d.tris)
		}

		// LRZ pass: a primitive is culled when a later (higher) opaque
		// primitive fully covers it. Single-rect containment is exact for
		// the popup-over-key and surface-over-background cases that drive
		// the side channel.
		culled := false
		for j := i + 1; j < len(list); j++ {
			if list[j].opaque && list[j].clip.Contains(d.clip) {
				culled = true
				break
			}
		}
		if culled {
			continue
		}

		area := uint64(d.clip.Area())
		stats.VisiblePrimAfterLRZ += uint64(d.tris)
		stats.VisiblePixelAfterLRZ += area
		stats.TotalPixels += area

		lrz := geom.Tiles(d.clip, lrzTileW, lrzTileH)
		stats.FullTiles8x8 += uint64(lrz.Full)
		stats.PartialTiles8x8 += uint64(lrz.Partial())

		ras := geom.Tiles(d.clip, rasTileW, rasTileH)
		stats.Tiles8x4 += uint64(ras.Touched)
		stats.FullyCovered8x4 += uint64(ras.Full)

		st := geom.Tiles(d.clip, superW, superH)
		stats.SuperTiles += uint64(st.Touched)
		stats.SupertileActiveCycles += uint64(st.Touched*16) + area/4
	}
	return stats
}

// AtlasQuad returns the single textured quad a glyph-atlas text renderer
// draws for a character: a tight ink-extents rectangle, two triangles.
// Android's HWUI renders small in-field text this way, which is why the
// paper observes the LRZ visible-primitive counter increasing by exactly 2
// per typed character (Figure 14). Space produces no quad.
func AtlasQuad(g glyph.Glyph, box geom.Rect) (Prim, bool) {
	ink := g.InkBounds()
	if ink == (geom.RectF{}) {
		return Prim{}, false
	}
	return Prim{Rect: ink.Scale(box), Opaque: false, Tris: 2, Verts: 4}, true
}

// AtlasTextPrims lays out text as one atlas quad per character, advancing
// by charW plus 10% letter spacing, clipped at the line end.
func AtlasTextPrims(text string, line geom.Rect, charW int) []Prim {
	var out []Prim
	x := line.X0
	adv := charW + charW/10
	for _, r := range text {
		box := geom.Rect{X0: x, Y0: line.Y0, X1: x + charW, Y1: line.Y1}
		if p, ok := AtlasQuad(glyph.MustLookup(r), box); ok {
			out = append(out, p)
		}
		x += adv
		if x >= line.X1 {
			break
		}
	}
	return out
}
