package exp

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/geom"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunFig22 reproduces Figure 22: the impact of concurrent CPU and GPU
// workloads. Paper: negligible reduction for CPU<50% or GPU<25%; drops
// toward ~60% when loads reach 75%.
func RunFig22(o Options) (*Result, error) {
	res := newResult("fig22", "Figure 22: impact of concurrent CPU/GPU workloads",
		"load", "level", "text acc", "char acc")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(150)
	levels := []float64{0, 0.25, 0.50, 0.75}

	// One block of trials per (kind, level) cell; seeds depend on the
	// level index and kind.
	kinds := []string{"cpu", "gpu"}
	var trials []trial
	for _, kind := range kinds {
		for li, lv := range levels {
			c := cfg
			if kind == "cpu" {
				c.CPULoad = lv
			} else {
				c.GPULoad = lv
			}
			trials = append(trials, typing(kgslTrial(c, m), LowerDigits, 10, per,
				input.Volunteers[li%5], input.SpeedAny, o.Seed+int64(li)*41231+hash32(kind))...)
		}
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for i, b := range blocks(recs, per) {
		kind, lv := kinds[i/len(levels)], levels[i%len(levels)]
		ta, ca := stats.TextAccuracy(texts(b)), stats.CharAccuracy(texts(b))
		res.Table.AddRow(kind, fmt.Sprintf("%.0f%%", lv*100), stats.Pct(ta), stats.Pct(ca))
		res.Metrics[fmt.Sprintf("%s_%.0f_text", kind, lv*100)] = ta
		res.Metrics[fmt.Sprintf("%s_%.0f_char", kind, lv*100)] = ca
	}
	return res, nil
}

func hash32(s string) int64 {
	var h int64 = 1469598103
	for _, c := range s {
		h = h*1099511 + int64(c)
	}
	return h
}

// RunFig23 reproduces Figure 23: the impact of the counter polling
// interval at 60 Hz and 120 Hz refresh rates. Paper: per-key accuracy
// stays >95% but text accuracy drops ~20% at a 12 ms interval; 120 Hz
// needs a 4 ms interval.
func RunFig23(o Options) (*Result, error) {
	res := newResult("fig23", "Figure 23: impact of the PC reading interval",
		"refresh", "interval", "text acc", "char acc")

	per := o.Trials(150)
	refreshes := []int{60, 120}
	intervals := []sim.Time{4 * sim.Millisecond, 8 * sim.Millisecond, 12 * sim.Millisecond}
	// One block of trials per (refresh, interval) cell.
	var trials []trial
	for _, hz := range refreshes {
		cfg := DefaultConfig()
		cfg.RefreshHz = hz
		m, err := TrainModel(o.Context(), cfg, o.Workers, "")
		if err != nil {
			return nil, err
		}
		for ii, iv := range intervals {
			base := kgslTrial(cfg, m)
			base.interval = iv
			trials = append(trials, typing(base, LowerDigits, 10, per,
				input.Volunteers[ii%5], input.SpeedAny, o.Seed+int64(hz)*7+int64(ii)*52561)...)
		}
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for i, b := range blocks(recs, per) {
		hz, interval := refreshes[i/len(intervals)], intervals[i%len(intervals)]
		ta, ca := stats.TextAccuracy(texts(b)), stats.CharAccuracy(texts(b))
		res.Table.AddRow(fmt.Sprintf("%dHz", hz), interval.String(), stats.Pct(ta), stats.Pct(ca))
		res.Metrics[fmt.Sprintf("%dhz_%dms_text", hz, int(interval/sim.Millisecond))] = ta
		res.Metrics[fmt.Sprintf("%dhz_%dms_char", hz, int(interval/sim.Millisecond))] = ca
	}
	return res, nil
}

// RunFig24 reproduces Figure 24: adaptability across GPU models (a),
// screen resolutions (b), phone models sharing a GPU (c) and Android OS
// versions (d). With per-configuration classifiers, accuracy is similar
// everywhere.
func RunFig24(o Options) (*Result, error) {
	res := newResult("fig24", "Figure 24: adaptability of the attack",
		"sweep", "configuration", "text acc", "char acc")

	per := o.Trials(100)

	type sweepCfg struct {
		sweep, label string
		cfg          victim.Config
	}
	var cfgs []sweepCfg
	addCfg := func(sweep, label string, cfg victim.Config) {
		cfgs = append(cfgs, sweepCfg{sweep: sweep, label: label, cfg: cfg})
	}
	// (a) GPU models.
	for _, dev := range []android.DeviceModel{android.LGV30, android.OnePlus7Pro, android.OnePlus8Pro, android.OnePlus9} {
		cfg := DefaultConfig()
		cfg.Device = dev
		addCfg("gpu", dev.GPU.String(), cfg)
	}
	// (b) Screen resolutions on the OnePlus 8 Pro.
	for _, r := range []geom.Size{android.FHDPlus, android.QHDPlus} {
		cfg := DefaultConfig()
		cfg.Resolution = r
		addCfg("resolution", r.String(), cfg)
	}
	// (c) Different phones sharing a GPU.
	for _, dev := range []android.DeviceModel{android.LGV30, android.Pixel2, android.OnePlus9, android.GalaxyS21} {
		cfg := DefaultConfig()
		cfg.Device = dev
		addCfg("model", dev.Name, cfg)
	}
	// (d) Android versions on the same hardware.
	for _, v := range []int{9, 10, 11} {
		cfg := DefaultConfig()
		cfg.Device = cfg.Device.WithAndroidVersion(v)
		addCfg("android", fmt.Sprintf("Android %d", v), cfg)
	}

	var trials []trial
	for i, sc := range cfgs {
		m, err := TrainModel(o.Context(), sc.cfg, o.Workers, "")
		if err != nil {
			return nil, err
		}
		seed := o.Seed + 60013*int64(i+1)
		base := kgslTrial(sc.cfg, m)
		// §7.4's recommendation: poll at no more than half the refresh
		// interval — 4 ms on 120 Hz panels.
		hz := sc.cfg.RefreshHz
		if hz == 0 {
			hz = sc.cfg.Device.DefaultRefreshHz()
		}
		if hz > 60 {
			base.interval = 4 * sim.Millisecond
		}
		trials = append(trials, typing(base, LowerDigits, 10, per,
			input.Volunteers[int(seed)%5], input.SpeedAny, seed)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var textAccs []float64
	for i, b := range blocks(recs, per) {
		sc := cfgs[i]
		ta, ca := stats.TextAccuracy(texts(b)), stats.CharAccuracy(texts(b))
		res.Table.AddRow(sc.sweep, sc.label, stats.Pct(ta), stats.Pct(ca))
		res.Metrics[sc.sweep+"/"+sc.label+"/text"] = ta
		res.Metrics[sc.sweep+"/"+sc.label+"/char"] = ca
		textAccs = append(textAccs, ta)
	}

	res.Metrics["min_text_acc"] = stats.Percentile(textAccs, 0)
	res.Metrics["max_text_acc"] = stats.Percentile(textAccs, 100)
	res.Metrics["text_acc_spread"] = stats.Percentile(textAccs, 100) - stats.Percentile(textAccs, 0)
	return res, nil
}
