package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"gpuleak/internal/input"
)

// FuzzResolveScenario hardens the path a POST /v1/eavesdrop body takes
// before any simulation runs: decoding into an EavesdropRequest and
// resolving it. Arbitrary bodies never panic, and an accepted scenario
// has a non-empty text, a volunteer in range, at most two channels, a
// defense strength in [0, 1], and a script that builds.
func FuzzResolveScenario(f *testing.F) {
	f.Add(`{"device":"OnePlus 8 Pro","app":"Chase","keyboard":"gboard","text":"hunter2","seed":7,` +
		`"volunteer":4,"practical":true,"pretrained_only":true,"timeout_ms":500,"fault_profile":"mild",` +
		`"fault_seed":3,"channel":"kgsl","channels":["kgsl","proccount"],"defense":"quantize+jitter",` +
		`"defense_strength":0.5,"defense_seed":9}`)
	f.Add(`{"text":"a"}`)
	f.Add(`{"text":"a","volunteer":-1}`)
	f.Add(`{"text":"a","channels":["kgsl","kgsl","kgsl"]}`)
	f.Add(`{"text":"a","defense":"noise","defense_strength":1.5}`)
	f.Add(`{"text":"a","channel":"proccount","fault_profile":"severe"}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, body string) {
		var req EavesdropRequest
		if err := decode(httptest.NewRequest("POST", "/v1/eavesdrop", strings.NewReader(body)), &req); err != nil {
			return
		}
		scen, err := ResolveScenario(req)
		if err != nil {
			return
		}
		if scen.Text == "" {
			t.Fatal("accepted an empty text")
		}
		if scen.Volunteer < 0 || scen.Volunteer >= len(input.Volunteers) {
			t.Fatalf("accepted volunteer %d", scen.Volunteer)
		}
		if len(scen.Channels) > 2 {
			t.Fatalf("accepted %d channels", len(scen.Channels))
		}
		if scen.DefenseStrength < 0 || scen.DefenseStrength > 1 {
			t.Fatalf("accepted defense strength %g", scen.DefenseStrength)
		}
		scen.Script()
	})
}
