package main

import (
	"context"
	"fmt"
	"time"

	"gpuleak"
	"gpuleak/internal/adreno"
	"gpuleak/internal/attack"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// libWarmups is how many untimed ops warm the library path.
const libWarmups = 20

// trainWorkers is the offline phase's worker count: one per core of the
// 2-core reference box, as gpuleakd trains there.
const trainWorkers = 2

// libBench is eavesdrop-lib: the attack pipeline called as a library on
// one warm model (OnePlus 8 Pro, Chase, GBoard), by one closed-loop client.
type libBench struct {
	seed  int64
	model *gpuleak.Model
	tr    *tracer
	// train is the process counters around the set-up's training of the
	// model: the offline phase the registry runs on a miss.
	train phase
	// l accumulates the traced layer times; only the single client
	// goroutine writes it.
	l libLedger
}

func setupLib(ctx context.Context, _ string, seed int64, tr *tracer) (bench, error) {
	scen, err := libScenario(seed, -1)
	if err != nil {
		return nil, err
	}
	before := takeSnapshot()
	m, err := attack.CollectContext(ctx, serve.TrainConfig(scen.Cfg), attack.CollectOptions{Repeats: 2, Workers: trainWorkers})
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	b := &libBench{seed: seed, model: m, tr: tr, train: phase{before: before, after: takeSnapshot()}}
	for i := -libWarmups; i < 0; i++ {
		var s sample
		if b.do(ctx, i, &s); s.err != nil {
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return b, nil
}

// libScenario resolves op i's request exactly as the serving layer would,
// on the default configuration.
func libScenario(seed int64, i int) (serve.Scenario, error) {
	in := newInput(seed, "eavesdrop-lib", i, 1)
	return serve.ResolveScenario(serve.EavesdropRequest{Text: in.text, Seed: in.seed})
}

func (b *libBench) do(ctx context.Context, i int, s *sample) {
	start := time.Now()
	scen, err := libScenario(b.seed, i)
	if err != nil {
		s.err = err
		return
	}
	if b.tr.enabled() {
		s.res, s.err = b.split(ctx, i, start, scen, &b.l)
		return
	}
	s.res, s.err = eavesdropLib(ctx, b.model, scen)
}

// eavesdropLib is one library eavesdrop, the facade quick start:
// NewVictim, Run, Open, then NewAttack(m).EavesdropContext.
func eavesdropLib(ctx context.Context, m *gpuleak.Model, scen serve.Scenario) (result, error) {
	sess := gpuleak.NewVictim(scen.Cfg)
	sess.Run(scen.Script())
	f, err := sess.Open()
	if err != nil {
		return result{}, fmt.Errorf("opening the device file: %w", err)
	}
	res, err := gpuleak.NewAttack(m).EavesdropContext(ctx, f, 0, sess.End)
	if err != nil {
		return result{}, err
	}
	return fromAttack(res, sess.TypedText()), nil
}

// libLedger sums the traced run's time per layer call.
type libLedger struct {
	ops                                   int
	op, input, victim, open, sampler, eng time.Duration
	reads, classify                       time.Duration
	nReads, nClassify                     int
	victimAllocs                          uint64
	allocsPerRead                         float64
}

// split is the library eavesdrop taken apart at its public calls, so each
// layer can be timed: Scenario.Script (input), victim.New+Run (victim),
// Session.Open (kgsl), NewSampler+CollectContext over a timing probe
// (sampler, with every KGSL read timed), and Attack.EavesdropTrace
// (engine, with the Classify hook timing classification). Its result is
// the same as eavesdropLib's, which the replay check holds it to. The op
// began at start; a nil l records nothing.
func (b *libBench) split(ctx context.Context, i int, start time.Time, scen serve.Scenario, l *libLedger) (result, error) {
	var sp [5]span
	mark := func(k int, name string) { sp[k] = span{name: name, parent: "op", op: i, start: time.Now()} }
	end := func(k int) { sp[k].end = time.Now() }

	mark(0, "input.script")
	script := scen.Script()
	end(0)
	a0 := mallocs()
	mark(1, "victim.run")
	sess := gpuleak.NewVictim(scen.Cfg)
	sess.Run(script)
	end(1)
	a1 := mallocs()
	mark(2, "kgsl.open")
	f, err := sess.Open()
	end(2)
	if err != nil {
		return result{}, fmt.Errorf("opening the device file: %w", err)
	}
	p := &timedProbe{inner: f}
	mark(3, "sampler.collect")
	var tr *trace.Trace
	smp, err := attack.NewSampler(p, attack.DefaultInterval)
	if err == nil {
		tr, err = smp.CollectContext(ctx, 0, sess.End)
	}
	end(3)
	if err != nil {
		return result{}, err
	}
	atk := gpuleak.NewAttack(b.model)
	var nClassify int
	var classify time.Duration
	atk.Classify = func(m *attack.Model, _ sim.Time, v trace.Vec) attack.Verdict {
		t := time.Now()
		verdict := m.ClassifyDenoised(v)
		classify += time.Since(t)
		nClassify++
		return verdict
	}
	mark(4, "engine.eavesdrop")
	res, err := atk.EavesdropTrace(tr)
	end(4)
	if err != nil {
		return result{}, err
	}
	out := fromAttack(res, sess.TypedText())
	if l == nil {
		return out, nil
	}
	opEnd := time.Now()
	dur := func(k int) time.Duration { return sp[k].end.Sub(sp[k].start) }
	l.ops++
	l.op += opEnd.Sub(start)
	l.input += dur(0)
	l.victim += dur(1)
	l.open += dur(2)
	l.sampler += dur(3)
	l.eng += dur(4)
	l.reads += p.d
	l.nReads += p.n
	l.classify += classify
	l.nClassify += nClassify
	l.victimAllocs += a1 - a0
	for _, s := range sp {
		b.tr.add(s)
	}
	return out, nil
}

// timedProbe wraps the KGSL device file and times every counter read.
type timedProbe struct {
	inner attack.Probe
	n     int
	d     time.Duration
}

func (p *timedProbe) ReserveSelected(t sim.Time) error { return p.inner.ReserveSelected(t) }

func (p *timedProbe) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	start := time.Now()
	v, err := p.inner.ReadSelected(t)
	p.d += time.Since(start)
	p.n++
	return v, err
}

// TickFault forwards the wrapped probe's clock faults, so timing never
// changes the schedule the sampler sees.
func (p *timedProbe) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	if tf, ok := p.inner.(attack.TickFaults); ok {
		return tf.TickFault(tick, t)
	}
	return 0, false
}

// check replays every 50th op through the other library path — the split
// calls on an untraced run, the quick start on a traced one — and requires
// the same result.
func (b *libBench) check(ctx context.Context, samples []sample) error {
	for i := 0; i < len(samples); i += replayEvery {
		scen, err := libScenario(b.seed, i)
		if err != nil {
			return err
		}
		var want result
		if b.tr.enabled() {
			want, err = eavesdropLib(ctx, b.model, scen)
		} else {
			want, err = b.split(ctx, i, time.Now(), scen, nil)
		}
		if err != nil {
			return fmt.Errorf("replaying op %d: %w", i, err)
		}
		if got := samples[i].res; string(got.canonical()) != string(want.canonical()) {
			return fmt.Errorf("op %d: the two library paths disagree:\n  %s\n  %s", i, got.canonical(), want.canonical())
		}
	}
	if b.tr.enabled() {
		return b.calibrateReads()
	}
	return nil
}

// calibrateReads measures allocations per KGSL read on a fresh device
// file, reading on the sampler's own schedule in a loop of nothing but
// reads, so no other layer's allocations count.
func (b *libBench) calibrateReads() error {
	scen, err := libScenario(b.seed, 0)
	if err != nil {
		return err
	}
	sess := gpuleak.NewVictim(scen.Cfg)
	sess.Run(scen.Script())
	f, err := sess.Open()
	if err != nil {
		return fmt.Errorf("opening the device file: %w", err)
	}
	if err := f.ReserveSelected(0); err != nil {
		return fmt.Errorf("reserving counters: %w", err)
	}
	reads := 0
	a0 := mallocs()
	for t := sim.Time(0); t <= sess.End; t += attack.DefaultInterval {
		if _, err := f.ReadSelected(t); err != nil {
			return fmt.Errorf("calibration read: %w", err)
		}
		reads++
	}
	b.l.allocsPerRead = float64(mallocs()-a0) / float64(reads)
	return nil
}

func (b *libBench) layers(_ phase, m map[string]float64) {
	t := b.train
	m["offline.cpu_util"] = (t.after.cpu - t.before.cpu).Seconds() / t.after.at.Sub(t.before.at).Seconds() / trainWorkers
	m["offline.allocs_per_model"] = float64(t.after.mallocs - t.before.mallocs)
	l := &b.l
	if l.ops == 0 {
		return
	}
	ops, op := float64(l.ops), float64(l.op)
	m["input.ms_per_op"] = ms(l.input) / ops
	m["victim.ms_per_op"] = ms(l.victim) / ops
	m["victim.share"] = float64(l.victim) / op
	m["victim.allocs_per_op"] = float64(l.victimAllocs) / ops
	m["kgsl.reads_per_op"] = float64(l.nReads) / ops
	m["kgsl.ns_per_read"] = float64(l.reads.Nanoseconds()) / float64(max(l.nReads, 1))
	m["kgsl.share"] = float64(l.open+l.reads) / op
	m["kgsl.allocs_per_read"] = l.allocsPerRead
	m["sampler.ms_per_op"] = ms(l.sampler-l.reads) / ops
	m["engine.ms_per_op"] = ms(l.eng-l.classify) / ops
	m["classify.calls_per_op"] = float64(l.nClassify) / ops
	m["classify.ns_per_call"] = float64(l.classify.Nanoseconds()) / float64(max(l.nClassify, 1))
	m["classify.share"] = float64(l.classify) / op
	m["trace.coverage"] = float64(l.input+l.victim+l.open+l.sampler+l.eng) / op
}

func (b *libBench) close() {}
