package exp

import (
	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunTransfer justifies the paper's §3.2 design decision to build "a
// separate classification model for each device model and configuration":
// a classifier trained on one device is applied to every other device.
// On-diagonal accuracy is high; off-diagonal accuracy collapses, because
// per-key deltas depend on resolution, tile alignment and GPU scaling.
func RunTransfer(o Options) (*Result, error) {
	res := newResult("transfer", "§3.2: cross-device model transfer (train row, attack column)",
		"train \\ attack", "Pixel 2", "OnePlus 8 Pro", "OnePlus 9")

	devices := []android.DeviceModel{android.Pixel2, android.OnePlus8Pro, android.OnePlus9}
	per := o.Trials(60)

	cfgs := make([]victim.Config, len(devices))
	models := make([]*attack.Model, len(devices))
	for i, dev := range devices {
		cfgs[i] = DefaultConfig()
		cfgs[i].Device = dev
		m, err := TrainModel(o.Context(), cfgs[i], o.Workers, "")
		if err != nil {
			return nil, err
		}
		models[i] = m
	}

	// One block of trials per (train, attack) cell of the matrix.
	var trials []trial
	for ti, m := range models {
		for ai, cfg := range cfgs {
			trials = append(trials, typing(kgslTrial(cfg, m), LowerDigits, 10, per,
				input.Volunteers[(ti+ai)%5], input.SpeedAny, o.Seed+int64(ti)*7753+int64(ai)*131)...)
		}
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	cells := blocks(recs, per)

	var diag, offdiag []float64
	for ti, trainDev := range devices {
		row := []string{trainDev.Name}
		for ai, attackDev := range devices {
			ca := stats.CharAccuracy(texts(cells[ti*len(devices)+ai]))
			row = append(row, stats.Pct(ca))
			res.Metrics[trainDev.Name+"->"+attackDev.Name] = ca
			if ti == ai {
				diag = append(diag, ca)
			} else {
				offdiag = append(offdiag, ca)
			}
		}
		res.Table.AddRow(row...)
	}
	res.Metrics["diag_mean"] = stats.Mean(diag)
	res.Metrics["offdiag_mean"] = stats.Mean(offdiag)
	return res, nil
}
