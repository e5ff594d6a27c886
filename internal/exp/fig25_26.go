package exp

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// RunFig26 reproduces Figure 26: extra battery consumption over two hours
// of monitoring on four phones. Paper: at most ~4% after 2 h.
func RunFig26(o Options) (*Result, error) {
	res := newResult("fig26", "Figure 26: extra battery consumption of the attack",
		"device", "30min", "60min", "90min", "120min")

	devices := []android.DeviceModel{android.LGV30, android.OnePlus8Pro, android.Pixel2, android.OnePlus7Pro}
	pm := victim.DefaultPowerModel()
	maxPct := 0.0
	for _, dev := range devices {
		row := []string{dev.Name}
		for _, minutes := range []int{30, 60, 90, 120} {
			pct := pm.ExtraBatteryPercent(dev, attack.DefaultInterval, sim.Time(minutes)*sim.Minute)
			row = append(row, fmt.Sprintf("%.2f%%", pct))
			res.Metrics[fmt.Sprintf("%s_%dmin", dev.Name, minutes)] = pct
			if pct > maxPct {
				maxPct = pct
			}
		}
		res.Table.AddRow(row...)
	}
	res.Metrics["max_extra_pct_2h"] = maxPct
	_ = o
	return res, nil
}
