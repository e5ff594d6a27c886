package exp

import (
	"fmt"

	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunFig16 reproduces Figure 16: key press durations and inter-key
// intervals of the five volunteers, showing the heterogeneity the
// experiments replay.
func RunFig16(o Options) (*Result, error) {
	res := newResult("fig16", "Figure 16: volunteer key press durations and intervals",
		"volunteer", "dur mean (s)", "dur std", "interval mean (s)", "interval std")

	n := o.Trials(2000)
	rng := sim.NewRand(o.Seed + 16)
	var meansLo, meansHi float64
	for i, v := range input.Volunteers {
		durs := make([]float64, n)
		ints := make([]float64, n)
		for j := 0; j < n; j++ {
			durs[j] = v.SampleDuration(rng).Seconds()
			ints[j] = v.SampleInterval(rng).Seconds()
		}
		dm, ds := stats.Mean(durs), stats.Std(durs)
		im, is := stats.Mean(ints), stats.Std(ints)
		res.Table.AddRow(v.Name, stats.Fmt(dm), stats.Fmt(ds), stats.Fmt(im), stats.Fmt(is))
		res.Metrics["dur_mean_"+v.Name] = dm
		res.Metrics["int_mean_"+v.Name] = im
		if i == 0 || im < meansLo {
			meansLo = im
		}
		if im > meansHi {
			meansHi = im
		}
	}
	res.Metrics["interval_spread_ratio"] = meansHi / meansLo
	return res, nil
}

// RunFig17 reproduces Figure 17: text-input accuracy vs credential length
// (a), mean wrong key presses per text (b), and per-character-group
// accuracy (c). Paper: text accuracy always >75%, average 81.3%; most
// texts have at most one wrong key; per-key accuracy 98.3%; symbols are
// the weakest group.
func RunFig17(o Options) (*Result, error) {
	res := newResult("fig17", "Figure 17: accuracy of inferring user text inputs (Chase, OnePlus 8 Pro, GBoard)",
		"length", "text acc", "char acc", "mean errors")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	perLength := o.Trials(300)
	lengths := []int{8, 9, 10, 11, 12, 13, 14, 15, 16}
	if o.Quick {
		lengths = []int{8, 12, 16}
	}

	var trials []trial
	for li, L := range lengths {
		trials = append(trials, typing(kgslTrial(cfg, m), CredAlphabet, L, perLength,
			input.Volunteers[li%5], input.SpeedAny, o.Seed+int64(L)*7919)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var textAccs []float64
	for li, b := range blocks(recs, perLength) {
		inf, truth := texts(b)
		ta, ca, me := stats.TextAccuracy(inf, truth), stats.CharAccuracy(inf, truth), stats.MeanErrors(inf, truth)
		res.Table.AddRow(fmt.Sprintf("%d", lengths[li]), stats.Pct(ta), stats.Pct(ca), stats.Fmt(me))
		res.Metrics[fmt.Sprintf("text_acc_len%d", lengths[li])] = ta
		textAccs = append(textAccs, ta)
	}
	inf, truth := texts(recs)
	ca, me := stats.CharAccuracy(inf, truth), stats.MeanErrors(inf, truth)
	res.Table.AddRow("all", stats.Pct(stats.TextAccuracy(inf, truth)), stats.Pct(ca), stats.Fmt(me))

	res.Metrics["avg_text_acc"] = stats.Mean(textAccs)
	res.Metrics["min_text_acc"] = stats.Percentile(textAccs, 0)
	res.Metrics["char_acc"] = ca
	res.Metrics["mean_errors"] = me

	groups := GroupAccuracies(inf, truth)
	for _, g := range []string{"lower", "upper", "number", "symbol"} {
		if acc, ok := groups[g]; ok {
			res.Table.AddRow("group:"+g, stats.Pct(acc), "", "")
			res.Metrics["group_"+g] = acc
		}
	}
	return res, nil
}

// RunFig18 reproduces Figure 18: inference accuracy per individual key.
// The paper shows most errors concentrated on a few minimal-overdraw
// symbols such as ';' and ”'.
func RunFig18(o Options) (*Result, error) {
	res := newResult("fig18", "Figure 18: inference accuracy over individual key presses",
		"key", "accuracy", "trials")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	repeats := o.Trials(50)
	charset := []rune("abcdefghijklmnopqrstuvwxyz1234567890,." +
		"ABCDEFGHIJKLMNOPQRSTUVWXYZ" + `@#$&-+()/*"':;!?`)

	rng := sim.NewRand(o.Seed + 18)
	var trials []trial
	// Type keys in shuffled blocks so every key sees varied context.
	for rep := 0; rep < repeats; rep += 8 {
		perm := rng.Perm(len(charset))
		var text []rune
		for _, idx := range perm {
			for k := 0; k < min(8, repeats-rep); k++ {
				text = append(text, charset[idx])
			}
		}
		// Split into sessions of 24 presses.
		for start := 0; start < len(text); start += 24 {
			t := kgslTrial(cfg, m)
			t.cfg.Seed = o.Seed + int64(rep)*131071 + int64(start)
			t.script = typeText(string(text[start:min(start+24, len(text))]),
				input.Volunteers[start%5], input.SpeedAny, t.cfg.Seed)
			trials = append(trials, t)
		}
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	conf := stats.NewConfusion()
	for _, r := range recs {
		scoreConfusion(conf, r.out.Result.Text, r.truth)
	}

	var worst float64 = 1
	var worstKey rune
	lowSymbols := 0
	for _, r := range conf.Seen() {
		acc := conf.Accuracy(r)
		res.Table.AddRow(string(r), stats.Pct(acc), fmt.Sprintf("%d", repeats))
		res.Metrics["acc_"+string(r)] = acc
		if acc < worst {
			worst = acc
			worstKey = r
		}
		if acc < 0.97 && stats.CharGroup(r) == "symbol" {
			lowSymbols++
		}
	}
	res.Metrics["overall"] = conf.Overall()
	res.Metrics["worst_acc"] = worst
	res.Metrics["worst_is_symbol"] = bool01(stats.CharGroup(worstKey) == "symbol")
	res.Metrics["low_symbol_count"] = float64(lowSymbols)
	return res, nil
}

// scoreConfusion aligns inferred to truth position-wise; on length
// mismatch it advances through a minimal-edit alignment.
func scoreConfusion(conf *stats.Confusion, inferred, truth string) {
	ir, tr := []rune(inferred), []rune(truth)
	if len(ir) == len(tr) {
		for i := range tr {
			conf.Add(tr[i], ir[i])
		}
		return
	}
	// Simple greedy alignment for insertions/deletions.
	i, j := 0, 0
	for j < len(tr) {
		switch {
		case i >= len(ir):
			conf.Add(tr[j], 0)
			j++
		case ir[i] == tr[j]:
			conf.Add(tr[j], ir[i])
			i++
			j++
		case len(ir)-i > len(tr)-j: // extra inferred key: skip it
			i++
		case len(ir)-i < len(tr)-j: // missed key
			conf.Add(tr[j], 0)
			j++
		default:
			conf.Add(tr[j], ir[i])
			i++
			j++
		}
	}
}
