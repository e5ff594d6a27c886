// Benchmarks: one per paper table/figure (regenerating the reported rows
// via internal/exp and printing them with -v), plus microbenchmarks of the
// attack's hot paths. Run:
//
//	go test -bench=. -benchmem
//
// Figure benches execute their experiment once (quick scale), report the
// headline metric through testing.B metrics, and then time the
// experiment's characteristic inner operation.
package gpuleak

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/exp"
	"gpuleak/internal/input"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// ---------------------------------------------------------------------
// Shared fixtures.

var (
	benchOnce    sync.Once
	benchModel   *Model
	benchTrace   *trace.Trace
	benchSession *victim.Session
)

func benchSetup(b *testing.B) (*Model, *trace.Trace) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := VictimConfig{Device: OnePlus8Pro, Seed: 1}
		m, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 2})
		if err != nil {
			panic(err)
		}
		benchModel = m
		sess := NewVictim(cfg)
		sess.Run(TypeText("benchmark42credential", 5))
		benchSession = sess
		f, err := sess.Open()
		if err != nil {
			panic(err)
		}
		s, err := attack.NewSampler(f, attack.DefaultInterval)
		if err != nil {
			panic(err)
		}
		tr, err := s.CollectContext(context.Background(), 0, sess.End)
		if err != nil {
			panic(err)
		}
		benchTrace = tr
	})
	return benchModel, benchTrace
}

// experiment runs one exp experiment once and reports its headline
// metrics; the per-iteration cost measured is the experiment's own
// runtime at quick scale divided across iterations via a single run.
func experimentBench(b *testing.B, id string, metrics ...string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var res *exp.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = e.Run(exp.Options{Quick: true, Seed: 20260705})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, mkey := range metrics {
		b.ReportMetric(res.Metric(mkey), sanitizeUnit(mkey))
	}
	if testing.Verbose() {
		b.Logf("\n%s", res.Table.String())
	}
}

// sanitizeUnit makes a metric name a legal testing.B unit (no whitespace).
func sanitizeUnit(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', '\\':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// ---------------------------------------------------------------------
// One bench per paper table/figure.

func BenchmarkFig05KeyDeltas(b *testing.B)     { experimentBench(b, "fig5", "delta_w", "delta_n") }
func BenchmarkFig06Scatter(b *testing.B)       { experimentBench(b, "fig6", "min_2d_separation") }
func BenchmarkFig11SystemFactors(b *testing.B) { experimentBench(b, "fig11", "dup_rate", "split_rate") }
func BenchmarkFig13AppSwitch(b *testing.B)     { experimentBench(b, "fig13", "switches_detected") }
func BenchmarkFig14InputLength(b *testing.B)   { experimentBench(b, "fig14", "correct_steps") }
func BenchmarkFig16Volunteers(b *testing.B)    { experimentBench(b, "fig16", "interval_spread_ratio") }
func BenchmarkFig17TextAccuracy(b *testing.B) {
	experimentBench(b, "fig17", "avg_text_acc", "char_acc")
}
func BenchmarkFig18PerKey(b *testing.B)    { experimentBench(b, "fig18", "overall", "worst_acc") }
func BenchmarkTable2Baseline(b *testing.B) { experimentBench(b, "table2", "max_accuracy") }
func BenchmarkFig19Apps(b *testing.B)      { experimentBench(b, "fig19", "min_text_acc") }
func BenchmarkFig20Keyboards(b *testing.B) { experimentBench(b, "fig20", "char_acc_spread") }
func BenchmarkFig21Speed(b *testing.B)     { experimentBench(b, "fig21", "fast_minus_slow_text") }
func BenchmarkFig22Load(b *testing.B)      { experimentBench(b, "fig22", "gpu_75_text", "cpu_75_text") }
func BenchmarkFig23Interval(b *testing.B) {
	experimentBench(b, "fig23", "60hz_8ms_text", "120hz_12ms_text")
}
func BenchmarkFig24Adaptability(b *testing.B) { experimentBench(b, "fig24", "text_acc_spread") }
func BenchmarkFig26Power(b *testing.B)        { experimentBench(b, "fig26", "max_extra_pct_2h") }
func BenchmarkFig28Practical(b *testing.B) {
	experimentBench(b, "fig28", "avg_trace_acc", "avg_char_acc")
}
func BenchmarkFig29Obfuscation(b *testing.B) {
	experimentBench(b, "fig29", "baseline_text", "pnc_text")
}
func BenchmarkModelSize(b *testing.B) { experimentBench(b, "modelsize", "model_bytes") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationDedupWindow(b *testing.B) {
	experimentBench(b, "ablation-dedup", "text_75ms (paper)", "text_disabled")
}
func BenchmarkAblationSplit(b *testing.B) {
	experimentBench(b, "ablation-split", "text_on", "text_off")
}
func BenchmarkAblationThreshold(b *testing.B) {
	experimentBench(b, "ablation-threshold", "text_1.0x", "text_0.1x")
}
func BenchmarkAblationCounterSet(b *testing.B) {
	experimentBench(b, "ablation-counters", "char_all 11", "char_LRZ only")
}
func BenchmarkAblationCorrections(b *testing.B) {
	experimentBench(b, "ablation-corrections", "trace_on", "trace_off")
}

// ---------------------------------------------------------------------
// Microbenchmarks of the attack's hot paths.

// BenchmarkCounterRead measures one multi-counter ioctl read (the §4
// sampling primitive the attacker invokes every 8 ms).
func BenchmarkCounterRead(b *testing.B) {
	benchSetup(b)
	f, err := benchSession.Open()
	if err != nil {
		b.Fatal(err)
	}
	if err := f.ReserveSelected(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadSelected(sim.Time(i%1000) * 8 * sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify measures the nearest-centroid classification of one
// counter delta (the §7.6 inference step, paper: <0.1 ms).
func BenchmarkClassify(b *testing.B) {
	m, tr := benchSetup(b)
	ds := tr.Deltas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Classify(ds[i%len(ds)].V)
	}
}

// BenchmarkClassifyDenoised measures the per-delta inference on each of
// its paths, over the benchmark session read through each channel:
// "unresolved" cycles through the deltas Classify leaves unresolved,
// each of which takes the noise-subtracting key scan, and "noise"
// through the deltas Classify calls noise, which the noise-first rule
// answers before any key scan where it can. On the proccount model whole
// key families share a centroid, so both scans run once per family.
func BenchmarkClassifyDenoised(b *testing.B) {
	for _, c := range []struct {
		name  string
		setup func(*testing.B) (*Model, *trace.Trace)
	}{{"kgsl", benchSetup}, {"proccount", benchProcSetup}} {
		for _, path := range []string{"unresolved", "noise"} {
			b.Run(c.name+"/"+path, func(b *testing.B) {
				m, tr := c.setup(b)
				var vs []trace.Vec
				for _, d := range tr.Deltas() {
					v := m.Classify(d.V)
					if (path == "noise") == v.IsNoise && !v.IsKey {
						vs = append(vs, d.V)
					}
				}
				if len(vs) == 0 {
					b.Fatalf("no delta takes the %s path", path)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = m.ClassifyDenoised(vs[i%len(vs)])
				}
			})
		}
	}
}

var (
	benchProcOnce  sync.Once
	benchProcModel *Model
	benchProcTrace *trace.Trace
)

// benchProcSetup is benchSetup on the proccount channel: a model trained
// on it, and the benchmark session read through it.
func benchProcSetup(b *testing.B) (*Model, *trace.Trace) {
	b.Helper()
	benchSetup(b)
	benchProcOnce.Do(func() {
		cfg := VictimConfig{Device: OnePlus8Pro, Seed: 1}
		m, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 2, Channel: proccount.Name})
		if err != nil {
			panic(err)
		}
		ch, err := channel.Get(proccount.Name)
		if err != nil {
			panic(err)
		}
		p, err := ch.Open(benchSession)
		if err != nil {
			panic(err)
		}
		s, err := attack.NewSamplerTaxonomy(p, ch.Interval, false, ch.Taxonomy)
		if err != nil {
			panic(err)
		}
		tr, err := s.CollectContext(context.Background(), 0, benchSession.End)
		if err != nil {
			panic(err)
		}
		benchProcModel, benchProcTrace = m, tr
	})
	return benchProcModel, benchProcTrace
}

// BenchmarkEngineTrace measures the full online engine over a complete
// credential-entry trace.
func BenchmarkEngineTrace(b *testing.B) {
	m, tr := benchSetup(b)
	ds := tr.Deltas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := attack.NewEngine(m, tr.Interval, attack.OnlineOptions{})
		eng.ProcessAll(ds)
	}
}

// BenchmarkVictimSession measures materializing a full victim session
// (compositor + GPU timeline) for a 10-character credential. Only the
// first iteration renders frames; every later one reads them from the
// warm frame-stats memo, as a long-running process does.
func BenchmarkVictimSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := VictimConfig{Device: OnePlus8Pro, Seed: int64(i)}
		sess := NewVictim(cfg)
		sess.Run(TypeText("tencharpwd", int64(i)))
	}
}

// BenchmarkOfflineCollect measures the full offline phase (all keys,
// 1 repeat).
func BenchmarkOfflineCollect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := VictimConfig{Device: OnePlus8Pro, Seed: int64(i + 1)}
		if _, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineCollectWorkers measures the offline phase at fixed
// worker-pool sizes; the BENCH_*.json trajectory compares the variants to
// spot scaling regressions. The trained model is bit-identical across
// variants, so only the wall clock moves.
func BenchmarkOfflineCollectWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := VictimConfig{Device: OnePlus8Pro, Seed: int64(i + 1)}
				if _, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17Workers measures a batch-heavy experiment at fixed
// worker-pool sizes (trial fan-out dominates once the model is cached).
func BenchmarkFig17Workers(b *testing.B) {
	e, ok := exp.ByID("fig17")
	if !ok {
		b.Fatal("fig17 not registered")
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(exp.Options{Quick: true, Seed: 20260705, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd measures one complete eavesdropping run: victim
// session + sampling + recognition + inference.
func BenchmarkEndToEnd(b *testing.B) {
	m, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := VictimConfig{Device: OnePlus8Pro, Seed: int64(i + 7)}
		sess := NewVictim(cfg)
		sess.Run(TypeText("hunter2pass", int64(i)))
		f, err := sess.Open()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewAttack(m).EavesdropContext(context.Background(), f, 0, sess.End); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBotScriptGen measures offline-phase script generation (the §6
// bot program's planning step).
func BenchmarkBotScriptGen(b *testing.B) {
	rng := sim.NewRand(3)
	for i := 0; i < b.N; i++ {
		_ = input.Typing("the quick brown fox", input.Volunteers[i%5], input.SpeedAny, rng, 0)
	}
}

var benchSinkStr string

// BenchmarkModelJSON measures model serialization (APK packing, §7.6).
func BenchmarkModelJSON(b *testing.B) {
	m, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb writerCounter
		if err := m.WriteJSON(&sb); err != nil {
			b.Fatal(err)
		}
		benchSinkStr = fmt.Sprint(sb.n)
	}
}

type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func BenchmarkAblationGreedyVsOffline(b *testing.B) {
	experimentBench(b, "ablation-greedy", "text_online", "text_offline")
}

func BenchmarkSec9Defenses(b *testing.B) {
	experimentBench(b, "sec9", "text_none", "attack_ioctl_rate")
}

func BenchmarkGuessing(b *testing.B) {
	experimentBench(b, "guessing", "acc@1", "acc@10")
}

func BenchmarkTransferMatrix(b *testing.B) {
	experimentBench(b, "transfer", "diag_mean", "offdiag_mean")
}

func BenchmarkFig12NoiseGeometry(b *testing.B) {
	experimentBench(b, "fig12", "noise_classified_as_key")
}

func BenchmarkFig27Behaviors(b *testing.B) {
	experimentBench(b, "fig27", "total_behaviors")
}
