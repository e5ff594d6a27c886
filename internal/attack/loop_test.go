package attack

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/android"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// failingProbe is a real session's probe whose reads fail with err from
// time from on; the other reads pass through. onRead, when set, sees
// every read's time first.
type failingProbe struct {
	Probe
	from   sim.Time
	err    error
	onRead func(sim.Time)
}

func (p *failingProbe) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	if p.onRead != nil {
		p.onRead(t)
	}
	if p.err != nil && t >= p.from {
		return [adreno.NumSelected]uint64{}, p.err
	}
	return p.Probe.ReadSelected(t)
}

// stream runs a's online loop over f as a one-leg Stack, with emit as
// its streaming tap: the path the serving layer's sessions take.
func stream(ctx context.Context, a *Attack, f Probe, start, end sim.Time, emit func(StreamEvent) error) (*Result, error) {
	out, err := (&Stack{Legs: []StackLeg{{Probe: f, Attack: a}}}).Run(ctx, start, end, emit)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// replayEvents runs a fresh engine over a collected trace and records
// what a stream taps: a retraction whenever the key count drops, then
// every new key, stamped with the delta that caused it.
func replayEvents(t *testing.T, a *Attack, tr *trace.Trace) []StreamEvent {
	t.Helper()
	m, err := a.Recognize(tr.Deltas(), tr.Interval)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(m, tr.Interval, a.Options)
	var evs []StreamEvent
	emitted := 0
	for _, d := range tr.Deltas() {
		eng.Process(d)
		keys := eng.Keys()
		if len(keys) < emitted {
			emitted = len(keys)
			evs = append(evs, StreamEvent{At: d.At, Kind: "retract", Keys: len(keys)})
		}
		for ; emitted < len(keys); emitted++ {
			evs = append(evs, StreamEvent{At: d.At, Kind: "key", Key: keys[emitted], Keys: emitted + 1})
		}
	}
	return evs
}

// loopRun is one side of TestOneLoopMatchesTwoPasses.
type loopRun struct {
	res       *Result
	events    []StreamEvent
	err       error
	telemetry []byte
	metrics   map[string]float64
}

// TestOneLoopMatchesTwoPasses pins the online loop, which runs Algorithm
// 1 on every delta as the sampler produces it, against the two-pass
// path: EavesdropTrace over CollectContext's whole trace. With one model
// and with two (recognition then buffers the launch window), under every
// fault profile, both give the same Result, error, telemetry and
// metrics, and the loop emits exactly the events the engine produces
// when replayed over the collected trace.
func TestOneLoopMatchesTwoPasses(t *testing.T) {
	m8 := sharedModel(t)
	m9, err := CollectContext(context.Background(), victim.Config{Device: android.OnePlus9, Seed: 5}, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	script := input.Practical("hello42", input.Volunteers[1], input.DefaultPracticalOptions(), sim.NewRand(6), 700*sim.Millisecond)
	ctx := context.Background()
	profiles := append([]fault.Profile{{Name: "no fault plane"}}, fault.Profiles()...)
	for _, c := range []struct {
		name   string
		models []*Model
		device android.DeviceModel
	}{
		{"one model", []*Model{m8}, android.OnePlus8Pro},
		{"two models", []*Model{m8, m9}, android.OnePlus9},
	} {
		for i, p := range profiles {
			// side opens a fresh session and stack for one path.
			side := func(twoPass bool) loopRun {
				sess := victim.New(victim.Config{Device: c.device, Seed: 61})
				sess.Run(script)
				f, err := sess.Open()
				if err != nil {
					t.Fatal(err)
				}
				tracer := obs.New()
				a := &Attack{Models: c.models, Interval: DefaultInterval, Obs: tracer}
				var probe Probe = f
				if i > 0 {
					ff := fault.NewFile(f, p, 3)
					ff.Obs = tracer
					probe, a.Retry = ff, true
				}
				var out loopRun
				if twoPass {
					s, err := NewSamplerTaxonomy(probe, a.Interval, a.Retry, a.Errors)
					if err != nil {
						t.Fatal(err)
					}
					s.Obs = tracer
					var tr *trace.Trace
					if tr, out.err = s.CollectContext(ctx, 0, sess.End); out.err == nil {
						if out.res, out.err = a.EavesdropTrace(tr); out.err == nil {
							out.res.addRecovery(s.Stats)
							out.events = replayEvents(t, a, tr)
						}
					}
				} else {
					out.res, out.err = stream(ctx, a, probe, 0, sess.End, func(ev StreamEvent) error {
						out.events = append(out.events, ev)
						return nil
					})
				}
				var buf bytes.Buffer
				if err := obs.WriteJSONL(&buf, tracer.Events()); err != nil {
					t.Fatal(err)
				}
				out.telemetry, out.metrics = buf.Bytes(), tracer.Metrics().Snapshot()
				return out
			}
			name := c.name + "/" + p.Name
			want, got := side(true), side(false)
			if (want.err == nil) != (got.err == nil) || (want.err != nil && want.err.Error() != got.err.Error()) {
				t.Fatalf("%s: one loop returns %v, two passes %v", name, got.err, want.err)
			}
			if want.err != nil {
				continue
			}
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("%s: one loop's result\n%+v\ndiffers from two passes'\n%+v", name, got.res, want.res)
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Errorf("%s: one loop emits %+v, the replayed engine %+v", name, got.events, want.events)
			}
			if !bytes.Equal(got.telemetry, want.telemetry) || !reflect.DeepEqual(got.metrics, want.metrics) {
				t.Errorf("%s: one loop's telemetry (%d bytes) or metrics differ from two passes' (%d bytes)",
					name, len(got.telemetry), len(want.telemetry))
			}
			if len(got.events) == 0 {
				t.Errorf("%s: no event emitted", name)
			}
		}
	}
}

// TestEavesdropStreamFailsMidRun pins what a run that fails after its
// first key streams: that key, emitted from inside the sampling loop,
// and then the error EavesdropContext returns for the same inputs.
func TestEavesdropStreamFailsMidRun(t *testing.T) {
	m := sharedModel(t)
	ctx := context.Background()
	stream := func(p *failingProbe) ([]StreamEvent, error) {
		sess := typedSession("pa55")
		f, err := sess.Open()
		if err != nil {
			t.Fatal(err)
		}
		p.Probe = f
		var evs []StreamEvent
		_, err = stream(ctx, New(m), p, 0, sess.End, func(ev StreamEvent) error {
			evs = append(evs, ev)
			return nil
		})
		return evs, err
	}
	clean, err := stream(&failingProbe{})
	if err != nil || len(clean) < 2 || clean[0].Kind != "key" {
		t.Fatalf("clean stream: %+v, %v; want at least two events, a key first", clean, err)
	}

	// Every read after the first key's fails fatally.
	yanked := errors.New("device file yanked")
	from := clean[0].At + 1
	sess := typedSession("pa55")
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, want := New(m).EavesdropContext(ctx, &failingProbe{Probe: f, from: from, err: yanked}, 0, sess.End)
	got, err := stream(&failingProbe{from: from, err: yanked})
	if want == nil || !errors.Is(err, yanked) || err.Error() != want.Error() {
		t.Fatalf("failing stream returns %v, EavesdropContext %v; want the same sampling error", err, want)
	}
	var se *SampleError
	if !errors.As(err, &se) || se.At != (from+DefaultInterval-1)/DefaultInterval*DefaultInterval {
		t.Errorf("error %v is not the sampler's at the first tick after %v", err, from)
	}
	if len(got) == 0 || len(got) >= len(clean) || !reflect.DeepEqual(got, clean[:len(got)]) {
		t.Fatalf("failing stream emitted %+v, want a proper prefix of the clean %+v", got, clean)
	}
	for _, ev := range got {
		if ev.At >= from {
			t.Errorf("event %+v emitted after reads began failing at %v", ev, from)
		}
	}
}

// TestOneLoopErrorPrecedence pins the errors of runs that fail in more
// than one way, in the two-pass path's order: a sampling failure before
// recognition (also with no model at all), a context that ends after
// the last tick before the result, and a sampling failure before an emit
// failure that came earlier in the run. An emit failure stops the engine,
// so emit is not called again.
func TestOneLoopErrorPrecedence(t *testing.T) {
	m := sharedModel(t)
	yanked := errors.New("device file yanked")
	emitFail := errors.New("client went away")
	for _, c := range []struct {
		name   string
		models []*Model
		// failAt makes reads fail from that time on (0: never).
		failAt sim.Time
		// cancelLast cancels the context during the last tick's read.
		cancelLast bool
		emitErr    error
		want       error
	}{
		{"no model", nil, 0, false, nil, ErrModelNotTrained},
		{"no model, sampling fails", nil, 300 * sim.Millisecond, false, nil, yanked},
		{"context ends after the last tick", []*Model{m}, 0, true, nil, context.Canceled},
		{"emit fails", []*Model{m}, 0, false, emitFail, emitFail},
		{"emit fails, then sampling", []*Model{m}, 2 * sim.Second, false, emitFail, yanked},
	} {
		sess := typedSession("pa55")
		f, err := sess.Open()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		p := &failingProbe{Probe: f, from: c.failAt}
		if c.failAt > 0 {
			p.err = yanked
		}
		last := sess.End / DefaultInterval * DefaultInterval
		if c.cancelLast {
			p.onRead = func(t sim.Time) {
				if t == last {
					cancel()
				}
			}
		}
		var emit func(StreamEvent) error
		calls := 0
		if c.emitErr != nil {
			emit = func(StreamEvent) error {
				calls++
				return c.emitErr
			}
		}
		_, err = stream(ctx, &Attack{Models: c.models, Interval: DefaultInterval}, p, 0, sess.End, emit)
		cancel()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: run returns %v, want %v", c.name, err, c.want)
		}
		if c.emitErr != nil && calls != 1 {
			t.Errorf("%s: emit called %d times, want once: its failure stops the engine", c.name, calls)
		}
	}
}

// scriptedProbe reads counters that step at scripted times: every read
// returns the sum of the steps at or before it.
type scriptedProbe struct {
	steps []struct {
		at sim.Time
		v  trace.Vec
	}
}

func (p *scriptedProbe) ReserveSelected(sim.Time) error { return nil }

func (p *scriptedProbe) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	var out [adreno.NumSelected]uint64
	for _, s := range p.steps {
		if s.at <= t {
			for i, v := range s.v {
				out[i] += uint64(v)
			}
		}
	}
	return out, nil
}

func (p *scriptedProbe) step(at sim.Time, v trace.Vec) {
	p.steps = append(p.steps, struct {
		at sim.Time
		v  trace.Vec
	}{at, v})
}

// TestOneLoopRecognizesOverLaunchWindow pins when the loop chooses among
// several models: a launch frame split across two reads matches model B
// only as a whole, while its first half alone matches model A, so a loop
// that recognized before the launch window closed would pick A.
func TestOneLoopRecognizesOverLaunchWindow(t *testing.T) {
	half := tinyModel().Launch.Scale(0.5)
	mA, mB := tinyModel(), tinyModel()
	mA.Key.Device, mA.Launch = "A", half
	mB.Key.Device = "B"
	p := &scriptedProbe{}
	p.step(ms(10), half)
	p.step(ms(18), half) // the second half, inside 2 intervals + 1 ms
	p.step(ms(60), keyA())
	p.step(ms(300), keyB())
	a := New(mA, mB)
	res, err := a.EavesdropContext(context.Background(), p, 0, ms(400))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(&scriptedProbe{steps: p.steps}, DefaultInterval)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.CollectContext(context.Background(), 0, ms(400))
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.EavesdropTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	want.addRecovery(s.Stats)
	if res.Model.Device != "B" || res.Text != "ab" || !reflect.DeepEqual(res, want) {
		t.Fatalf("one loop gives %+v, two passes %+v; want model B typing \"ab\"", res, want)
	}
}
