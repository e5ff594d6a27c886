package attack

import (
	"context"
	"reflect"
	"testing"

	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// typedSession simulates the base configuration typing text.
func typedSession(text string) *victim.Session {
	sess := victim.New(baseVictimConfig())
	sess.Run(input.Typing(text, input.Volunteers[0], input.SpeedAny, sim.NewRand(5), 700*sim.Millisecond))
	return sess
}

// TestPipelineBuildRules pins the stack rules Build applies: wrap order,
// fault scope, the derived retry switch, and which leg receives Obs and
// the Classify hook.
func TestPipelineBuildRules(t *testing.T) {
	m := sharedModel(t)
	tr := obs.New()
	classify := func(m *Model, _ sim.Time, v trace.Vec) Verdict { return m.ClassifyDenoised(v) }
	sess := typedSession("ab")
	pol, err := defense.Get("quantize")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := pol.Arm(sess, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	kgslLeg, procLeg := Leg{Model: m}, Leg{Channel: proccount.Name, Model: m}

	type want struct {
		faulted, wrapped, retry, traced, hooked bool
	}
	for _, tc := range []struct {
		name string
		p    Pipeline
		legs []want
	}{
		{"kgsl", Pipeline{Legs: []Leg{kgslLeg}},
			[]want{{traced: true, hooked: true}}},
		{"kgsl/fault", Pipeline{Legs: []Leg{kgslLeg}, Fault: fault.Mild},
			[]want{{faulted: true, retry: true, traced: true, hooked: true}}},
		{"proccount/defense", Pipeline{Legs: []Leg{procLeg}, Defense: inst},
			[]want{{wrapped: true, retry: true, traced: true, hooked: true}}},
		{"fused/fault", Pipeline{Legs: []Leg{kgslLeg, procLeg}, Fault: fault.Mild},
			[]want{{faulted: true, retry: true, traced: true}, {}}},
		{"fused/fault+defense", Pipeline{Legs: []Leg{kgslLeg, procLeg}, Fault: fault.Mild, Defense: inst},
			[]want{{faulted: true, wrapped: true, retry: true, traced: true}, {wrapped: true, retry: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.p.Obs, tc.p.Classify = tr, classify
			st, err := tc.p.Build(sess)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range tc.legs {
				l := st.Legs[i]
				if got := l.Fault != nil; got != w.faulted {
					t.Errorf("leg %d: faulted = %v, want %v", i, got, w.faulted)
				}
				if l.Fault != nil && l.Fault.Obs != tr {
					t.Errorf("leg %d: fault plane untraced", i)
				}
				if got := reflect.TypeOf(l.Probe).Elem().PkgPath() == "gpuleak/internal/defense"; got != w.wrapped {
					t.Errorf("leg %d: defense-wrapped = %v, want %v", i, got, w.wrapped)
				}
				if l.Attack.Retry != w.retry {
					t.Errorf("leg %d: retry = %v, want %v", i, l.Attack.Retry, w.retry)
				}
				if got := l.Attack.Obs == tr; got != w.traced {
					t.Errorf("leg %d: traced = %v, want %v", i, got, w.traced)
				}
				if got := l.Attack.Classify != nil; got != w.hooked {
					t.Errorf("leg %d: classify hook = %v, want %v", i, got, w.hooked)
				}
				if l.Attack.Interval != l.Channel.Interval || l.Attack.Errors != l.Channel.Taxonomy {
					t.Errorf("leg %d: interval/taxonomy not the channel's", i)
				}
			}
		})
	}

	for _, bad := range []Pipeline{
		{Legs: []Leg{procLeg}, Fault: fault.Mild},
		{Legs: []Leg{kgslLeg, procLeg, kgslLeg}},
		{},
	} {
		if _, err := bad.Build(sess); err == nil {
			t.Errorf("Build(%d legs, fault %q) succeeded, want an error", len(bad.Legs), bad.Fault.Name)
		}
	}
}

// TestPipelineRunShapes pins the result shapes: a single-leg run gives
// exactly EavesdropContext's result on the raw device file, and a two-leg
// run is exactly Fuse over the legs' engine-only results.
func TestPipelineRunShapes(t *testing.T) {
	m := sharedModel(t)
	sm, err := CollectContext(context.Background(), baseVictimConfig(), CollectOptions{Repeats: 1, Channel: proccount.Name})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sess := typedSession("pa55")
	single, err := Pipeline{Legs: []Leg{{Model: m}}}.Run(ctx, sess, 0, sess.End, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := typedSession("pa55")
	f, err := raw.Open()
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(m).EavesdropContext(ctx, f, 0, raw.End)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Result, want) {
		t.Errorf("single-leg result %+v, want EavesdropContext's %+v", single.Result, want)
	}
	if single.Fusion != nil || single.Legs[0].Trace == nil || single.Result.Recovery != single.Legs[0].Stats {
		t.Errorf("single-leg outcome misshapen: %+v", single.Legs[0])
	}

	sess = typedSession("pa55")
	fused, err := Pipeline{Legs: []Leg{{Model: m}, {Channel: proccount.Name, Model: sm}}, Fault: fault.Moderate, FaultSeed: 3}.
		Run(ctx, sess, 0, sess.End, nil)
	if err != nil {
		t.Fatal(err)
	}
	pri, sec := fused.Legs[0], fused.Legs[1]
	wantFused := Fuse(m, pri.Trace.Deltas(), pri.Result, sm, sec.Result, DefaultInterval)
	if !reflect.DeepEqual(fused.Fusion, wantFused) || fused.Result != fused.Fusion.Fused {
		t.Errorf("fused outcome differs from Fuse over its legs")
	}
	if pri.Result.Recovery != (CollectStats{}) || !pri.Stats.Degraded() || pri.Injected.Total() == 0 {
		t.Errorf("fused primary leg: recovery %+v, stats %+v, injected %+v", pri.Result.Recovery, pri.Stats, pri.Injected)
	}
}
