package exp

import (
	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/parallel"
	"gpuleak/internal/stats"
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

	models, err := parallel.Map(o.Workers, len(devices), func(i int) (*attack.Model, error) {
		cfg := DefaultConfig()
		cfg.Device = devices[i]
		return TrainModel(cfg, o.Workers, "")
	})
	if err != nil {
		return nil, err
	}

	// The full train × attack matrix is independent cell-wise.
	n := len(devices)
	accs, err := parallel.Map(o.Workers, n*n, func(i int) (float64, error) {
		ti, ai := i/n, i%n
		cfg := DefaultConfig()
		cfg.Device = devices[ai]
		b, err := RunBatch(o, cfg, models[ti], LowerDigits, 10, per,
			input.Volunteers[(ti+ai)%5], input.SpeedAny, attack.DefaultInterval,
			attack.OnlineOptions{}, o.Seed+int64(ti)*7753+int64(ai)*131)
		if err != nil {
			return 0, err
		}
		return b.CharAccuracy(), nil
	})
	if err != nil {
		return nil, err
	}

	var diag, offdiag []float64
	for ti, trainDev := range devices {
		row := []string{trainDev.Name}
		for ai, attackDev := range devices {
			ca := accs[ti*n+ai]
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
