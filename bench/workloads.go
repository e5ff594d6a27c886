package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"

	"gpuleak/internal/attack"
	"gpuleak/internal/exp"
	"gpuleak/internal/input"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
)

// conns caps the client side of every workload: at most two client
// goroutines or connections, one per core of the 2-core reference box, so
// the load generator never competes with the system for more CPU than it
// would on a real client.
const conns = 2

// workload is one named traffic mix. The names and reasons are the ones
// BENCHMARK.json lists.
type workload struct {
	name string
	why  string
	// closed is a closed loop with one client; otherwise ops arrive on a
	// fixed schedule over conns connections.
	closed bool
	// rate sets the op count of a run, rate x seconds, so every commit
	// does the same work. An open loop sends at this rate in ops/s; a
	// closed loop runs its ops back to back, and rate is what one client
	// sustains on the 2-core reference box.
	rate float64
	// setup builds the system under test and warms it; every timed op then
	// goes through the returned bench. tr is nil on untraced runs.
	setup func(ctx context.Context, name string, seed int64, tr *tracer) (bench, error)
}

// bench is a workload that is set up and ready to be measured.
type bench interface {
	// do runs op i and records its outcome into s. Negative i are warm-up
	// ops, drawn from their own inputs.
	do(ctx context.Context, i int, s *sample)
	// check runs after the timed phase: the workload's own validity and
	// replay checks.
	check(ctx context.Context, samples []sample) error
	// layers adds the workload's per-layer metrics of a traced run.
	layers(p phase, m map[string]float64)
	close()
}

var workloads = []*workload{
	{
		name:   "eavesdrop-lib",
		why:    "The hot path with no serving layer: victim sim, KGSL reads, sampler, engine and classify on one warm model, one closed-loop client.",
		closed: true,
		rate:   250,
		setup:  setupLib,
	},
	{
		name:  "serve-stream",
		why:   "Sessions at 60/s over 12 pre-trained configs: HTTP decode, admission, registry hits, the micro-batcher, the session table and SSE framing on top of the library path.",
		rate:  60,
		setup: setupServe(stream),
	},
	{
		name:  "serve-hostile",
		why:   "Fused kgsl+proccount eavesdrops at 35 req/s under mild faults, a quantize defense and practical typing: fault recovery, defense wraps and Fuse; bypasses the batcher.",
		rate:  35,
		setup: setupServe(hostile),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opInput is one generated eavesdrop input: the credential the simulated
// victim types, the victim's seed, and which config of a mix it uses.
type opInput struct {
	text string
	seed int64
	pick int
}

// newInput derives op i's input from the run seed alone, so the same seed
// gives the same inputs at any op count, on any commit. stream keeps the
// workloads' input sequences apart; picks is the size of the config mix.
func newInput(seed int64, stream string, i, picks int) opInput {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := sim.NewRand(sim.TaskSeed(seed^int64(h.Sum64()), i))
	// Credentials of 8-16 characters over the Fig 17/18 alphabet.
	text := input.RandomText(r, exp.CredAlphabet, 8+r.Intn(9))
	return opInput{text: text, seed: r.Int63(), pick: r.Intn(picks)}
}

// result is one op's canonical output: what the output digest hashes and
// what the replay checks compare: every field the serving layer answers
// an eavesdrop with.
type result struct {
	Model    string               `json:"model"`
	Text     string               `json:"text,omitempty"`
	Truth    string               `json:"truth,omitempty"`
	Keys     int                  `json:"keys,omitempty"`
	EstLen   int                  `json:"estimated_length,omitempty"`
	Stats    attack.EngineStats   `json:"stats"`
	Degraded bool                 `json:"degraded,omitempty"`
	Recovery *attack.CollectStats `json:"recovery,omitempty"`
	Fusion   *serve.FusionInfo    `json:"fusion,omitempty"`
}

// fromAttack builds the canonical result of a library eavesdrop exactly as
// the serving layer builds its response body.
func fromAttack(res *attack.Result, truth string) result {
	r := result{
		Model: res.Model.String(), Text: res.Text, Truth: truth,
		Keys: len(res.Keys), EstLen: res.EstimatedLength, Stats: res.Stats, Degraded: res.Degraded,
	}
	if res.Degraded {
		rec := res.Recovery
		r.Recovery = &rec
	}
	return r
}

func fromResponse(resp serve.EavesdropResponse) result {
	return result{
		Model: resp.Model, Text: resp.Text, Truth: resp.Truth,
		Keys: resp.Keys, EstLen: resp.EstimatedLength, Stats: resp.Stats,
		Degraded: resp.Degraded, Recovery: resp.Recovery, Fusion: resp.Fusion,
	}
}

// canonical is the byte form of a result the digest hashes.
func (r result) canonical() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain data: marshaling cannot fail
	}
	return b
}

// digest is the sha256 of the canonical results, one per line, in op order.
func digest(rs []result) string {
	h := sha256.New()
	for _, r := range rs {
		h.Write(r.canonical())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
