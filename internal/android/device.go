// Package android models the victim-side Android environment: device
// models (§7.5), target applications and their login scenes (§3.1), and
// the vsync-driven UI compositor that converts user/system events into GPU
// frames. It is the glue between the keyboard/glyph/render substrates and
// the adreno GPU model. A frame's statistics depend only on the
// configuration and the UI state, so the package renders each state once
// per process into a bounded memo that every compositor shares.
package android

import (
	"fmt"

	"gpuleak/internal/adreno"
	"gpuleak/internal/geom"
)

// DeviceModel describes a smartphone product.
type DeviceModel struct {
	Name           string
	GPU            adreno.Model
	AndroidVersion int
	// Resolutions the device supports; index 0 is the default.
	Resolutions []geom.Size
	// RefreshRates in Hz; index 0 is the default.
	RefreshRates []int
	// BatteryMilliWattHours sizes the §7.6 power model.
	BatteryMilliWattHours int
}

func (d DeviceModel) String() string {
	return fmt.Sprintf("%s (%v, Android %d)", d.Name, d.GPU, d.AndroidVersion)
}

// DefaultResolution returns the factory display resolution.
func (d DeviceModel) DefaultResolution() geom.Size { return d.Resolutions[0] }

// DefaultRefreshHz returns the factory refresh rate.
func (d DeviceModel) DefaultRefreshHz() int { return d.RefreshRates[0] }

// Common display resolutions used in the paper (§7.5: FHD+ and QHD+).
var (
	FHDPlus = geom.Size{W: 1080, H: 2376}
	QHDPlus = geom.Size{W: 1440, H: 3168}
)

// The device models evaluated in the paper (§7.5 and the artifact).
var (
	LGV30 = DeviceModel{
		Name: "LG V30+", GPU: adreno.A540, AndroidVersion: 9,
		Resolutions:  []geom.Size{{W: 1440, H: 2880}, {W: 1080, H: 2160}},
		RefreshRates: []int{60}, BatteryMilliWattHours: 12540,
	}
	Pixel2 = DeviceModel{
		Name: "Google Pixel 2", GPU: adreno.A540, AndroidVersion: 10,
		Resolutions:  []geom.Size{{W: 1080, H: 1920}},
		RefreshRates: []int{60}, BatteryMilliWattHours: 10430,
	}
	OnePlus7Pro = DeviceModel{
		Name: "OnePlus 7 Pro", GPU: adreno.A640, AndroidVersion: 11,
		Resolutions:  []geom.Size{QHDPlus, FHDPlus},
		RefreshRates: []int{90, 60}, BatteryMilliWattHours: 15200,
	}
	OnePlus8Pro = DeviceModel{
		Name: "OnePlus 8 Pro", GPU: adreno.A650, AndroidVersion: 11,
		Resolutions:  []geom.Size{FHDPlus, QHDPlus},
		RefreshRates: []int{60, 120}, BatteryMilliWattHours: 17100,
	}
	OnePlus9 = DeviceModel{
		Name: "OnePlus 9", GPU: adreno.A660, AndroidVersion: 11,
		Resolutions:  []geom.Size{{W: 1080, H: 2400}},
		RefreshRates: []int{120, 60}, BatteryMilliWattHours: 17000,
	}
	GalaxyS21 = DeviceModel{
		Name: "Samsung Galaxy S21", GPU: adreno.A660, AndroidVersion: 11,
		Resolutions:  []geom.Size{{W: 1080, H: 2400}},
		RefreshRates: []int{120, 60}, BatteryMilliWattHours: 15400,
	}
	Pixel5 = DeviceModel{
		Name: "Google Pixel 5", GPU: adreno.A620, AndroidVersion: 11,
		Resolutions:  []geom.Size{{W: 1080, H: 2340}},
		RefreshRates: []int{90, 60}, BatteryMilliWattHours: 15500,
	}
)

// Devices lists every modeled phone, in §7.5 order.
var Devices = []DeviceModel{LGV30, Pixel2, OnePlus7Pro, OnePlus8Pro, OnePlus9, GalaxyS21, Pixel5}

// DeviceByName returns the device with the given name, or false.
func DeviceByName(name string) (DeviceModel, bool) {
	for _, d := range Devices {
		if d.Name == name {
			return d, true
		}
	}
	return DeviceModel{}, false
}

// WithAndroidVersion returns a copy of the device running a different OS
// version (used by the Figure-24d sweep).
func (d DeviceModel) WithAndroidVersion(v int) DeviceModel {
	d.AndroidVersion = v
	return d
}

// StatusBarHeight returns the status bar height in pixels for the device's
// OS version; newer Android versions use taller bars. This is one of the
// version-dependent UI differences the per-configuration classifiers
// absorb (§7.5).
func StatusBarHeight(androidVersion int, screen geom.Size) int {
	base := screen.H / 40
	switch {
	case androidVersion <= 8:
		return base
	case androidVersion == 9:
		return base + 6
	case androidVersion == 10:
		return base + 10
	default:
		return base + 14
	}
}
