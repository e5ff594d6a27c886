package gpuleak_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"gpuleak"
	"gpuleak/internal/serve"
)

// The complete attack pipeline: offline training, a victim typing a
// credential, and online eavesdropping through the GPU counters.
func Example() {
	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 1}

	model, err := gpuleak.Train(cfg)
	if err != nil {
		panic(err)
	}

	session := gpuleak.NewVictim(cfg)
	session.Run(gpuleak.TypeText("hunter2", 7))

	file, err := session.Open()
	if err != nil {
		panic(err)
	}
	result, err := gpuleak.NewAttack(model).Eavesdrop(file, 0, session.End)
	if err != nil {
		panic(err)
	}
	fmt.Println(result.Text)
	// Output: hunter2
}

// Installing the post-disclosure SELinux policy blocks the global counter
// read and with it the whole attack.
func Example_mitigated() {
	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 2}
	model, err := gpuleak.Train(cfg)
	if err != nil {
		panic(err)
	}

	session := gpuleak.NewVictim(cfg)
	session.Run(gpuleak.TypeText("hunter2", 7))
	session.Device.SetPolicy(gpuleak.GooglePatchPolicy())

	file, err := session.Open()
	if err != nil {
		panic(err)
	}
	if _, err := gpuleak.NewAttack(model).Eavesdrop(file, 0, session.End); err != nil {
		fmt.Println("attack blocked")
	}
	// Output: attack blocked
}

// Injecting device faults through the fault plane: the retry policy
// absorbs EBUSY bursts, revocations and missed ticks, the result is
// flagged degraded instead of failing.
func Example_faultInjection() {
	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 1}
	model, err := gpuleak.Train(cfg)
	if err != nil {
		panic(err)
	}

	session := gpuleak.NewVictim(cfg)
	session.Run(gpuleak.TypeText("hunter2", 7))
	file, err := session.Open()
	if err != nil {
		panic(err)
	}

	profile, _ := gpuleak.FaultProfileByName("moderate")
	plane := gpuleak.InjectFaults(file, profile, 5)

	atk := gpuleak.NewAttack(model)
	atk.Retry = gpuleak.DefaultRetryPolicy()
	result, err := atk.Eavesdrop(plane, 0, session.End)
	if err != nil {
		panic(err)
	}
	fmt.Println(result.Text, result.Degraded, plane.Stats.Total() > 0)
	// Output: hunter2 true true
}

// Arming a registered defense on the victim session: strength-1
// quantization floors every exported counter onto a key-press-sized
// grid, and the attacker's inference collapses while the platform pays
// half a percent of overhead. The arms experiment sweeps every defense
// over a strength grid this way and charts the frontier.
func Example_defenseTournament() {
	cfg := gpuleak.VictimConfig{Device: gpuleak.OnePlus8Pro, Seed: 1}
	model, err := gpuleak.Train(cfg)
	if err != nil {
		panic(err)
	}

	session := gpuleak.NewVictim(cfg)
	session.Run(gpuleak.TypeText("hunter2", 7))

	pol, err := gpuleak.DefenseByName("quantize")
	if err != nil {
		panic(err)
	}
	inst, err := pol.Arm(session, 1, gpuleak.DefenseSeed(1, 0))
	if err != nil {
		panic(err)
	}

	file, err := session.Open()
	if err != nil {
		panic(err)
	}
	probe := inst.WrapProbe("kgsl", file)

	result, err := gpuleak.NewAttack(model).EavesdropContext(context.Background(), probe, 0, session.End)
	if err != nil {
		panic(err)
	}
	fmt.Println(gpuleak.Defenses())
	fmt.Println(result.Text != "hunter2", inst.Overhead())
	// Output:
	// [jitter noise quantize ratelimit rbac]
	// true 0.005
}

// The serving layer under injected faults: recovered runs answer 200
// with a degraded flag and recovery accounting — faults cost accuracy,
// never availability.
func Example_degradedServing() {
	srv := serve.NewServer(serve.Options{Shards: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/eavesdrop", "application/json",
		strings.NewReader(`{"text":"hunter2","seed":7,"fault_profile":"moderate"}`))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var er serve.EavesdropResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		panic(err)
	}
	fmt.Println(resp.StatusCode, er.Degraded, er.Recovery != nil)
	// Output: 200 true true
}
