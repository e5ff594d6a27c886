package android

import (
	"sync"

	"gpuleak/internal/geom"
	"gpuleak/internal/glyph"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

// Compositor is the SurfaceFlinger-like component: it owns the login UI,
// the on-screen keyboard and the dynamic layers (popup, echo text, cursor,
// notification icons, app-switch animation) and produces the FrameStats of
// every UI change. Those stats come from the process-wide frame-stats memo
// (see memoKey), so each distinct UI state of a configuration is rendered
// once per process, however many compositors ask for it. The login UI and
// keyboard geometry are built only when a state misses the memo. A
// Compositor is not safe for concurrent use; the memo it reads is.
type Compositor struct {
	Device    DeviceModel
	Screen    geom.Size
	RefreshHz int
	App       *App
	KB        *keyboard.Layout

	ui    *LoginUI
	geoms map[keyboard.Page]*keyboard.Geometry
	stats *statsTable
}

// memoCap bounds the configurations the frame-stats memo holds. It covers
// gpuleakd's default registry (4 shards of 8 models) with room to spare;
// the frames of one fully trained configuration take ~40 KB.
const memoCap = 64

// memoKey is everything rendering reads of a configuration: the app and
// Android version shape the login UI, the keyboard and screen the IME.
// Counter scaling by GPU model (adreno) and per-session render jitter
// (victim) apply after the lookup, so they are not part of the key.
type memoKey struct {
	app     *App
	kb      *keyboard.Layout
	screen  geom.Size
	version int
}

// statsTable holds the rendered FrameStats of one configuration.
type statsTable struct {
	mu sync.Mutex
	m  map[stateKey]render.FrameStats
}

// memo is the process-wide frame-stats memo; fifo lists its keys oldest
// first. Past memoCap the oldest table is dropped: compositors holding it
// keep using it, and later ones re-render the same stats into a new one,
// so no output depends on what the memo holds.
var memo = struct {
	sync.Mutex
	tables map[memoKey]*statsTable
	fifo   []memoKey
}{tables: make(map[memoKey]*statsTable)}

// tableFor returns the memo table of a configuration, creating it on
// first use.
func tableFor(k memoKey) *statsTable {
	memo.Lock()
	defer memo.Unlock()
	if t, ok := memo.tables[k]; ok {
		return t
	}
	if len(memo.fifo) == memoCap {
		delete(memo.tables, memo.fifo[0])
		memo.fifo = memo.fifo[1:]
	}
	t := &statsTable{m: make(map[stateKey]render.FrameStats)}
	memo.tables[k] = t
	memo.fifo = append(memo.fifo, k)
	return t
}

type frameKind int

const (
	kindLaunch frameKind = iota
	kindPopupShow
	kindPopupHide
	kindEcho
	kindCursor
	kindNotif
	kindSwitch
	kindAnim
)

type stateKey struct {
	kind frameKind
	page keyboard.Page
	r    rune
	n    int
	on   bool
}

// NewCompositor builds the UI stack for one device configuration and
// resolves the configuration's table in the frame-stats memo.
func NewCompositor(dev DeviceModel, screen geom.Size, refreshHz int, app *App, kb *keyboard.Layout) *Compositor {
	return &Compositor{
		Device:    dev,
		Screen:    screen,
		RefreshHz: refreshHz,
		App:       app,
		KB:        kb,
		stats:     tableFor(memoKey{app: app, kb: kb, screen: screen, version: dev.AndroidVersion}),
	}
}

// VsyncPeriod returns the display refresh interval.
func (c *Compositor) VsyncPeriod() sim.Time {
	return sim.Time(1_000_000 / c.RefreshHz)
}

// AlignVsync returns the first vsync boundary at or after t.
func (c *Compositor) AlignVsync(t sim.Time) sim.Time {
	p := c.VsyncPeriod()
	if t%p == 0 {
		return t
	}
	return (t/p + 1) * p
}

// loginUI returns the app's login screen, laid out on first use.
func (c *Compositor) loginUI() *LoginUI {
	if c.ui == nil {
		c.ui = c.App.BuildLoginUI(c.Screen, c.Device.AndroidVersion)
	}
	return c.ui
}

// Geometry returns (and caches) the keyboard geometry for a page.
func (c *Compositor) Geometry(page keyboard.Page) *keyboard.Geometry {
	if g, ok := c.geoms[page]; ok {
		return g
	}
	if c.geoms == nil {
		c.geoms = make(map[keyboard.Page]*keyboard.Geometry)
	}
	g := c.KB.Geometry(c.Screen, page)
	c.geoms[page] = g
	return g
}

// keyboardLayer builds the IME surface: key caps (opaque quads) plus key
// labels (vector glyph primitives — large text renders as tessellated
// paths). This layer is what a popup redraw re-renders, giving the
// ~1.6k-primitive frame deltas of Figure 5.
func (c *Compositor) keyboardLayer(page keyboard.Page) render.Layer {
	g := c.Geometry(page)
	prims := []render.Prim{render.Quad(g.Bounds, true)}
	for _, key := range g.Keys {
		prims = append(prims, render.Quad(key.Face, true))
		prims = append(prims, render.GlyphPrims(glyph.MustLookup(key.Rune()), key.LabelBox)...)
	}
	return render.Layer{Z: 10, Name: "keyboard", Prims: prims}
}

// popupLayer builds the key press popup surface above the keyboard.
func (c *Compositor) popupLayer(page keyboard.Page, r rune) (render.Layer, geom.Rect, bool) {
	g := c.Geometry(page)
	key, ok := g.KeyFor(r)
	if !ok {
		return render.Layer{}, geom.Rect{}, false
	}
	popup := g.PopupRect(key)
	prims := []render.Prim{render.Quad(popup, true)}
	prims = append(prims, render.GlyphPrims(glyph.MustLookup(r), g.PopupGlyphBox(popup))...)
	return render.Layer{Z: 20, Name: "popup", Prims: prims}, popup, true
}

// echoLayer renders the masked password echo: one atlas quad (2 triangles)
// per typed character plus an optional cursor bar. This is the physical
// basis of the Figure-14 ±2 primitive steps.
func (c *Compositor) echoLayer(n int, cursorOn bool) render.Layer {
	ui := c.loginUI()
	prims := render.AtlasTextPrims(bullets(n), ui.EchoLine(), ui.EchoCharW)
	if cursorOn {
		prims = append(prims, render.Quad(ui.CursorRect(n), false))
	}
	return render.Layer{Z: 6, Name: "echo", Prims: prims}
}

func bullets(n int) string {
	rs := make([]rune, n)
	for i := range rs {
		rs[i] = '•'
	}
	return string(rs)
}

// scene assembles the full current screen.
func (c *Compositor) scene(page keyboard.Page, popupRune rune, echoLen int, cursorOn bool) render.Scene {
	s := c.loginUI().Scene.Clone()
	s.Add(c.echoLayer(echoLen, cursorOn))
	s.Add(c.keyboardLayer(page))
	if popupRune != 0 {
		if l, _, ok := c.popupLayer(page, popupRune); ok {
			s.Add(l)
		}
	}
	return s
}

// cached returns the memoized stats of UI state k, rendering them with
// build on a miss. Two sessions may miss on the same state at once and
// both render it; rendering is pure, so both store the same value.
func (c *Compositor) cached(k stateKey, build func() render.FrameStats) render.FrameStats {
	t := c.stats
	t.mu.Lock()
	st, ok := t.m[k]
	t.mu.Unlock()
	if ok {
		return st
	}
	st = build()
	t.mu.Lock()
	t.m[k] = st
	t.mu.Unlock()
	return st
}

// LaunchStats renders the first full frame after the target app opens:
// the device-recognition fingerprint of §3.2.
func (c *Compositor) LaunchStats() render.FrameStats {
	return c.cached(stateKey{kind: kindLaunch}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, 0, true)
		return render.Render(&s, s.Bounds())
	})
}

// PopupShowStats renders the frame in which the popup of rune r appears.
// The IME window redraws (keyboard bounds) plus the popup overhang.
func (c *Compositor) PopupShowStats(page keyboard.Page, r rune) render.FrameStats {
	return c.cached(stateKey{kind: kindPopupShow, page: page, r: r}, func() render.FrameStats {
		s := c.scene(page, r, 0, false)
		_, popup, ok := c.popupLayer(page, r)
		if !ok {
			return render.FrameStats{}
		}
		damage := c.Geometry(page).Bounds.Union(popup)
		return render.Render(&s, damage)
	})
}

// PopupHideStats renders the frame in which the popup disappears (same
// damage, keyboard without popup).
func (c *Compositor) PopupHideStats(page keyboard.Page, r rune) render.FrameStats {
	return c.cached(stateKey{kind: kindPopupHide, page: page, r: r}, func() render.FrameStats {
		s := c.scene(page, 0, 0, false)
		_, popup, ok := c.popupLayer(page, r)
		if !ok {
			return render.FrameStats{}
		}
		damage := c.Geometry(page).Bounds.Union(popup)
		return render.Render(&s, damage)
	})
}

// EchoStats renders the password-field update after the n-th character
// appears (or after a deletion leaves n characters).
func (c *Compositor) EchoStats(n int, cursorOn bool) render.FrameStats {
	return c.cached(stateKey{kind: kindEcho, n: n, on: cursorOn}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, n, cursorOn)
		return render.Render(&s, c.loginUI().Password)
	})
}

// CursorStats renders a cursor blink toggle: tiny damage, tiny delta —
// the §5.3 noise source with a strict 0.5 s period.
func (c *Compositor) CursorStats(n int, on bool) render.FrameStats {
	return c.cached(stateKey{kind: kindCursor, n: n, on: on}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, n, on)
		return render.Render(&s, c.loginUI().CursorRect(n).Inset(-2))
	})
}

// NotifStats renders a status-bar change with n notification icons.
func (c *Compositor) NotifStats(n int) render.FrameStats {
	return c.cached(stateKey{kind: kindNotif, n: n}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, 0, false)
		sb := c.loginUI().StatusBar
		iconW := sb.H() - 8
		prims := make([]render.Prim, 0, n)
		for i := 0; i < n; i++ {
			x := sb.X0 + 8 + i*(iconW+6)
			prims = append(prims, render.Quad(geom.Rect{X0: x, Y0: sb.Y0 + 4, X1: x + iconW, Y1: sb.Y1 - 4}, false))
		}
		s.Add(render.Layer{Z: 8, Name: "notif", Prims: prims})
		return render.Render(&s, sb)
	})
}

// SwitchFrameStats renders frame i of the app-switch (recents) animation:
// full-screen redraws with scaled app cards, producing the fierce counter
// bursts of Figure 13.
func (c *Compositor) SwitchFrameStats(i, total int) render.FrameStats {
	return c.cached(stateKey{kind: kindSwitch, n: i*100 + total}, func() render.FrameStats {
		s := render.Scene{Screen: c.Screen}
		full := geom.XYWH(0, 0, c.Screen.W, c.Screen.H)
		s.Add(render.Layer{Z: 0, Name: "wallpaper", Prims: []render.Prim{render.Quad(full, true)}})
		// Two app cards shrinking/sliding with the animation phase.
		frac := float64(i+1) / float64(total+1)
		w := int(float64(c.Screen.W) * (1.0 - 0.35*frac))
		h := int(float64(c.Screen.H) * (1.0 - 0.35*frac))
		x0 := (c.Screen.W - w) / 2
		y0 := (c.Screen.H - h) / 2
		card1 := geom.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h}
		card2 := card1.Translate(-w-40, 0).Intersect(full)
		prims := []render.Prim{render.Quad(card1, false)}
		if !card2.Empty() {
			prims = append(prims, render.Quad(card2, false))
		}
		// Card contents: a blurred snapshot approximated by banded quads.
		for b := 0; b < 6; b++ {
			band := geom.Rect{X0: card1.X0 + 16, Y0: card1.Y0 + 16 + b*h/7, X1: card1.X1 - 16, Y1: card1.Y0 + 16 + b*h/7 + h/9}
			prims = append(prims, render.Quad(band.Intersect(full), false))
		}
		s.Add(render.Layer{Z: 5, Name: "cards", Prims: prims})
		return render.Render(&s, full)
	})
}

// AnimFrameStats renders one frame of a decorative login animation (PNC,
// §9.3): an ornament sweeping through the animation band. Each phase has
// different stats, so these frames obfuscate the per-key deltas. Apps
// without an animation band render nothing.
func (c *Compositor) AnimFrameStats(phase int) render.FrameStats {
	const phases = 24
	phase = phase % phases
	return c.cached(stateKey{kind: kindAnim, n: phase}, func() render.FrameStats {
		band := c.loginUI().AnimBand
		if band.Empty() {
			return render.FrameStats{}
		}
		s := c.scene(keyboard.PageLower, 0, 0, false)
		w := band.W() / 6
		x := band.X0 + (band.W()-w)*phase/phases
		orn := geom.Rect{X0: x, Y0: band.Y0 + 2, X1: x + w + phase*3, Y1: band.Y1 - 2}
		spark := geom.Rect{X0: x + w/3, Y0: band.Y0 + band.H()/4, X1: x + w/3 + 12 + phase, Y1: band.Y0 + band.H()/4 + 12}
		s.Add(render.Layer{Z: 7, Name: "anim", Prims: []render.Prim{
			render.Quad(band, false),
			render.Quad(orn.Intersect(band), false),
			render.Quad(spark.Intersect(band), false),
		}})
		return render.Render(&s, band)
	})
}

// FrameDuration converts a frame's pixel work into GPU draw time given the
// device fill rate and a contention factor from concurrent GPU load
// (0 = idle). Longer draws widen the mid-draw window in which a counter
// read observes a split delta (§7.3).
func (c *Compositor) FrameDuration(st render.FrameStats, gpuLoad float64) sim.Time {
	if gpuLoad < 0 {
		gpuLoad = 0
	}
	if gpuLoad > 0.95 {
		gpuLoad = 0.95
	}
	rate := c.Device.GPU.FillRate() * (1 - 0.75*gpuLoad)
	us := float64(st.TotalPixels) / rate
	d := sim.Time(us)
	if d < 300 {
		d = 300
	}
	if max := c.VsyncPeriod() * 3; d > max {
		d = max
	}
	return d
}

// KeyboardRedrawStats renders a plain IME redraw (page switch, layout
// change): keyboard bounds damage, no popup.
func (c *Compositor) KeyboardRedrawStats(page keyboard.Page) render.FrameStats {
	return c.cached(stateKey{kind: kindPopupHide, page: page, r: -1}, func() render.FrameStats {
		s := c.scene(page, 0, 0, false)
		return render.Render(&s, c.Geometry(page).Bounds)
	})
}
