// Package geom provides integer pixel geometry: rectangles, sizes, and the
// tile-grid arithmetic used by the tile-based renderer to account for GPU
// overdraw exactly (full tiles, partial tiles, supertiles).
package geom

import "fmt"

// Size is a width/height pair in pixels.
type Size struct {
	W, H int
}

func (s Size) String() string { return fmt.Sprintf("%dx%d", s.W, s.H) }

// Rect is a half-open pixel rectangle [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// XYWH builds a rectangle from origin and size.
func XYWH(x, y, w, h int) Rect { return Rect{x, y, x + w, y + h} }

// Empty reports whether r covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// W returns the width (0 if empty).
func (r Rect) W() int {
	if r.Empty() {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the height (0 if empty).
func (r Rect) H() int {
	if r.Empty() {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the covered pixel count.
func (r Rect) Area() int { return r.W() * r.H() }

// Intersect returns the intersection of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: max(r.X0, o.X0),
		Y0: max(r.Y0, o.Y0),
		X1: min(r.X1, o.X1),
		Y1: min(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the bounding box of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		X0: min(r.X0, o.X0),
		Y0: min(r.Y0, o.Y0),
		X1: max(r.X1, o.X1),
		Y1: max(r.Y1, o.Y1),
	}
}

// Contains reports whether o lies entirely within r.
func (r Rect) Contains(o Rect) bool {
	if o.Empty() {
		return true
	}
	return r.X0 <= o.X0 && r.Y0 <= o.Y0 && r.X1 >= o.X1 && r.Y1 >= o.Y1
}

// Overlaps reports whether r and o share at least one pixel.
func (r Rect) Overlaps(o Rect) bool { return !r.Intersect(o).Empty() }

// Inset shrinks the rectangle by d on every side.
func (r Rect) Inset(d int) Rect { return Rect{r.X0 + d, r.Y0 + d, r.X1 - d, r.Y1 - d} }

// Translate shifts the rectangle by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %dx%d]", r.X0, r.Y0, r.W(), r.H())
}

// RectF is a rectangle in normalized (em) coordinates, used by glyph stroke
// tables. Scale maps it onto pixels.
type RectF struct {
	X0, Y0, X1, Y1 float64
}

// Scale maps the normalized rectangle into a pixel rect of the given box.
// Degenerate results are widened to at least one pixel so hairline strokes
// still rasterize, as real GPUs do with conservative rasterization of text.
func (r RectF) Scale(box Rect) Rect {
	w := float64(box.W())
	h := float64(box.H())
	out := Rect{
		X0: box.X0 + int(r.X0*w),
		Y0: box.Y0 + int(r.Y0*h),
		X1: box.X0 + int(r.X1*w),
		Y1: box.Y0 + int(r.Y1*h),
	}
	if out.X1 <= out.X0 {
		out.X1 = out.X0 + 1
	}
	if out.Y1 <= out.Y0 {
		out.Y1 = out.Y0 + 1
	}
	return out
}

// TileCount describes how a rectangle lands on a tile grid.
type TileCount struct {
	Touched int // tiles overlapping the rect at all
	Full    int // tiles entirely inside the rect
}

// Partial returns the boundary tiles (touched but not fully covered).
func (t TileCount) Partial() int { return t.Touched - t.Full }

// Tiles computes, analytically, how r covers a grid of tw x th tiles
// anchored at the origin. This is the exact arithmetic a binning GPU
// performs when assigning primitives to tiles.
func Tiles(r Rect, tw, th int) TileCount {
	if r.Empty() || tw <= 0 || th <= 0 {
		return TileCount{}
	}
	touchedX := ceilDiv(r.X1, tw) - floorDiv(r.X0, tw)
	touchedY := ceilDiv(r.Y1, th) - floorDiv(r.Y0, th)
	fullX := floorDiv(r.X1, tw) - ceilDiv(r.X0, tw)
	fullY := floorDiv(r.Y1, th) - ceilDiv(r.Y0, th)
	if fullX < 0 {
		fullX = 0
	}
	if fullY < 0 {
		fullY = 0
	}
	return TileCount{Touched: touchedX * touchedY, Full: fullX * fullY}
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
