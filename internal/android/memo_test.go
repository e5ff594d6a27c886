package android

import (
	"testing"

	"gpuleak/internal/geom"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/render"
)

// statsKinds calls every stats method the memo serves, over a spread of
// UI states.
var statsKinds = []struct {
	name  string
	stats func(c *Compositor) render.FrameStats
}{
	{"launch", (*Compositor).LaunchStats},
	{"popup-show", func(c *Compositor) render.FrameStats { return c.PopupShowStats(keyboard.PageLower, 'q') }},
	{"popup-show-number", func(c *Compositor) render.FrameStats { return c.PopupShowStats(keyboard.PageNumber, '7') }},
	{"popup-hide", func(c *Compositor) render.FrameStats { return c.PopupHideStats(keyboard.PageUpper, 'M') }},
	{"echo", func(c *Compositor) render.FrameStats { return c.EchoStats(5, false) }},
	{"cursor", func(c *Compositor) render.FrameStats { return c.CursorStats(3, true) }},
	{"notif", func(c *Compositor) render.FrameStats { return c.NotifStats(2) }},
	{"switch", func(c *Compositor) render.FrameStats { return c.SwitchFrameStats(4, 10) }},
	{"anim", func(c *Compositor) render.FrameStats { return c.AnimFrameStats(7) }},
	{"keyboard-redraw", func(c *Compositor) render.FrameStats { return c.KeyboardRedrawStats(keyboard.PageSymbol) }},
}

// fresh returns a compositor of c's configuration whose stats table is
// private and empty, so everything it serves is a new render.Render.
func fresh(c *Compositor) *Compositor {
	return &Compositor{
		Device: c.Device, Screen: c.Screen, RefreshHz: c.RefreshHz, App: c.App, KB: c.KB,
		stats: &statsTable{m: make(map[stateKey]render.FrameStats)},
	}
}

// TestMemoKeyComplete pins that the memo key holds everything rendering
// reads: configurations that differ from a warm base in exactly one of
// app, keyboard, resolution or Android version are served exactly what a
// fresh render of their own scene gives, never the base's frames.
func TestMemoKeyComplete(t *testing.T) {
	type config struct {
		dev    DeviceModel
		screen geom.Size
		app    *App
		kb     *keyboard.Layout
	}
	base := config{OnePlus8Pro, FHDPlus, PNC, keyboard.Sogou}
	variants := map[string]config{
		"app":             {OnePlus8Pro, FHDPlus, Amex, keyboard.Sogou},
		"keyboard":        {OnePlus8Pro, FHDPlus, PNC, keyboard.Go},
		"resolution":      {OnePlus8Pro, QHDPlus, PNC, keyboard.Sogou},
		"android version": {OnePlus8Pro.WithAndroidVersion(9), FHDPlus, PNC, keyboard.Sogou},
	}
	open := func(c config) *Compositor { return NewCompositor(c.dev, c.screen, 60, c.app, c.kb) }

	warm := open(base)
	var baseStats []render.FrameStats
	for _, k := range statsKinds {
		baseStats = append(baseStats, k.stats(warm))
	}
	for name, v := range variants {
		c := open(v)
		differs := false
		for i, k := range statsKinds {
			got := k.stats(c)
			if want := k.stats(fresh(c)); got != want {
				t.Errorf("%s variant, %s: memo served %v, a fresh render gives %v", name, k.name, got, want)
			}
			differs = differs || got != baseStats[i]
		}
		if !differs {
			t.Errorf("%s variant renders exactly like the base; the check would not see a missing key field", name)
		}
	}
}

// TestMemoCapDropsOldest pins the memo's bound: opening memoCap+1
// configurations leaves at most memoCap tables, the first one opened is
// dropped, and reopening it renders the same stats again.
func TestMemoCapDropsOldest(t *testing.T) {
	open := func(w int) *Compositor {
		return NewCompositor(Pixel5, geom.Size{W: w, H: 1500}, 60, Chase, keyboard.GBoard)
	}
	first := open(700)
	want := first.LaunchStats()
	for i := 1; i <= memoCap; i++ {
		open(700 + i)
	}
	memo.Lock()
	n := len(memo.tables)
	_, kept := memo.tables[memoKey{app: Chase, kb: keyboard.GBoard, screen: geom.Size{W: 700, H: 1500}, version: Pixel5.AndroidVersion}]
	memo.Unlock()
	if n > memoCap {
		t.Fatalf("memo holds %d tables, cap %d", n, memoCap)
	}
	if kept {
		t.Fatal("the oldest configuration survived memoCap newer ones")
	}
	again := open(700)
	if again.stats == first.stats {
		t.Fatal("a dropped configuration reopened its old table")
	}
	if got := again.LaunchStats(); got != want {
		t.Fatalf("re-rendered launch stats %v, first render %v", got, want)
	}
}
