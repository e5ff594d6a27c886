package exp

import (
	"gpuleak/internal/baseline"
	"gpuleak/internal/cupti"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunTable2 reproduces Table 2: the eavesdropping accuracy of prior work
// [37] using workload-level desktop Nvidia GPU counters (CUPTI, 10 ms
// polling) with three classifiers over three victim applications. The
// paper reports 8.7-14.2% — workload-level counters cannot resolve
// per-key overdraw, which motivates the paper's pixel-granularity
// counters. A canceled context stops it before the next workload's
// datasets are built or the next classifier is fit.
func RunTable2(o Options) (*Result, error) {
	res := newResult("table2", "Table 2: accuracy of prior work [37] on desktop Nvidia counters",
		"classifier", "gedit", "Gmail web", "Dropbox client")

	alphabet := []rune("abcdefghijklmnopqrstuvwxyz0123456789" + `,.;'-=`)
	trainPer := o.Trials(30)
	testPer := o.Trials(10)

	clfs := []func() baseline.Classifier{
		func() baseline.Classifier { return &baseline.GaussianNB{} },
		func() baseline.Classifier { return &baseline.KNN{K: 3} },
		func() baseline.Classifier { return &baseline.RandomForest{Trees: 40, Seed: o.Seed} },
	}

	accs := make([][]float64, len(clfs))
	for ci := range accs {
		accs[ci] = make([]float64, len(cupti.Workloads))
	}

	ctx := o.Context()
	for wi, w := range cupti.Workloads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := sim.NewRand(o.Seed + int64(wi)*17)
		build := func(per int) *baseline.Dataset {
			d := &baseline.Dataset{}
			for rep := 0; rep < per; rep++ {
				for yi, r := range alphabet {
					d.Add(w.KeystrokeSample(r, rng), yi)
				}
			}
			return d
		}
		train := build(trainPer)
		test := build(testPer)
		for ci, mk := range clfs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := mk()
			if err := c.Fit(train); err != nil {
				return nil, err
			}
			accs[ci][wi] = baseline.Accuracy(c, test)
		}
	}

	names := []string{"Naive Bayes", "KNN3", "Random Forest"}
	maxAcc := 0.0
	for ci, name := range names {
		res.Table.AddRow(name, stats.Pct(accs[ci][0]), stats.Pct(accs[ci][1]), stats.Pct(accs[ci][2]))
		for wi, w := range cupti.Workloads {
			res.Metrics[name+"/"+w.Name] = accs[ci][wi]
			if accs[ci][wi] > maxAcc {
				maxAcc = accs[ci][wi]
			}
		}
	}
	res.Metrics["max_accuracy"] = maxAcc
	res.Metrics["chance"] = 1.0 / float64(len(alphabet))
	return res, nil
}
