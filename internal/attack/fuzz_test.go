package attack

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"gpuleak/internal/proccount"
	"gpuleak/internal/trace"
)

// FuzzReadModel hardens the model reader behind attackd's and
// traceview's -model flag: arbitrary input never panics, and any model
// that parses classifies the zero delta and each of its own centroids
// without panicking.
func FuzzReadModel(f *testing.F) {
	var buf bytes.Buffer
	if err := sharedModel(f).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := tinyModel().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"keys":{"":[1]},"weights":[0,-1],"cth":-1,"noise":[{"v":[1e308]}]}`))
	f.Add([]byte(`{"keys":{}}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := ReadModel(bytes.NewReader(doc))
		if err != nil {
			return
		}
		probe := []trace.Vec{{}}
		for _, v := range m.Keys {
			probe = append(probe, v)
		}
		for _, n := range m.Noise {
			probe = append(probe, n.V)
		}
		for _, v := range probe {
			m.Classify(v)
			m.ClassifyDenoised(v)
		}
	})
}

var (
	procModelOnce sync.Once
	procModel     *Model
	procModelErr  error
)

// classifyModels are FuzzClassifyMatchesMapScan's models: the trained
// KGSL model, the proccount model (key families share centroids, so
// distances tie exactly) and the negative-weight model.
func classifyModels(t testing.TB) []*Model {
	procModelOnce.Do(func() {
		procModel, procModelErr = Collect(baseVictimConfig(), CollectOptions{Repeats: 1, Channel: proccount.Name})
	})
	if procModelErr != nil {
		t.Fatal(procModelErr)
	}
	return []*Model{sharedModel(t), procModel, negWeightModel(t)}
}

// sameVerdict compares verdicts field by field, floats by their bits.
func sameVerdict(a, b Verdict) bool {
	return a.IsKey == b.IsKey && a.R == b.R && a.Alt == b.Alt &&
		a.Noise == b.Noise && a.IsNoise == b.IsNoise &&
		math.Float64bits(a.Dist) == math.Float64bits(b.Dist) &&
		math.Float64bits(a.AltDist) == math.Float64bits(b.AltDist)
}

// FuzzClassifyMatchesMapScan pins the pruned, indexed classify scans to
// the map-scan references on arbitrary deltas: up to 11 raw float64 bit
// patterns (so NaN, ±Inf and huge values occur), each added to a chosen
// key centroid or, where its bit of replace is set, replacing that
// dimension. Every verdict must equal the reference's bit for bit.
func FuzzClassifyMatchesMapScan(f *testing.F) {
	models := classifyModels(f)
	bits := func(xs ...float64) []byte {
		out := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	tiny := tinyModel()
	f.Add(uint8(0), uint8(0), uint16(0), []byte(nil))
	f.Add(uint8(1), uint8(7), uint16(0), []byte(nil))
	f.Add(uint8(1), uint8(40), uint16(0), bits(0.5, 0, 1))
	f.Add(uint8(2), uint8(1), uint16(0), bits(tiny.Noise[0].V[:]...))
	f.Add(uint8(2), uint8(0), uint16(0b1111), bits(390, 35, 8, 904))
	f.Add(uint8(0), uint8(3), uint16(1), bits(math.NaN()))
	f.Add(uint8(0), uint8(9), uint16(0), bits(math.Inf(1), 0, math.Inf(-1)))
	f.Add(uint8(1), uint8(2), uint16(0x7ff), bits(1e308, -1e308, 5e-324, 0, math.MaxFloat64))
	// Merged deltas: a key centroid plus one of the model's own noise
	// centroids, exactly or 0.3 sigma off in every dimension, on the KGSL
	// and proccount models. The reference picks up to three of each kind
	// per model that Classify leaves unresolved and the denoising scan
	// accepts; each key starts at its own noise centroid, so the seeds mix
	// noise classes. An exact merge is accepted at distance 0, an offset
	// one only when its runner-up is far enough, which is what a wrong
	// search bound gets wrong. On proccount a whole key family shares the
	// residual, so only exact merges are accepted, through exact ties.
	for mi, m := range models[:2] {
		w := m.Weights.Clamped()
		seeded := 0
		runes := m.Runes()
		for _, off := range []float64{0, 0.3} {
			n := 0
			for ki := 0; ki < len(runes) && n < 3; ki++ {
				for j := range m.Noise {
					x := m.Noise[(ki+j)%len(m.Noise)].V
					for i := range x {
						x[i] += off / w[i]
					}
					v := m.Keys[string(runes[ki])].Add(x)
					if out := refClassify(m, v); out.IsKey || out.IsNoise || !refClassifyDenoised(m, v).IsKey {
						continue
					}
					f.Add(uint8(mi), uint8(ki), uint16(0), bits(x[:]...))
					n++
					break
				}
			}
			seeded += n
		}
		if seeded == 0 {
			f.Fatalf("model %d: no key plus noise centroid is an accepted merged delta", mi)
		}
	}
	f.Fuzz(func(t *testing.T, model, key uint8, replace uint16, raw []byte) {
		m := models[int(model)%len(models)]
		runes := m.Runes()
		v := m.Keys[string(runes[int(key)%len(runes)])]
		for i := range v {
			if len(raw) < 8 {
				break
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			if replace&(1<<i) != 0 {
				v[i] = x
			} else {
				v[i] += x
			}
		}
		if got, want := m.Classify(v), refClassify(m, v); !sameVerdict(got, want) {
			t.Fatalf("Classify(%v) = %+v, map scan gives %+v", v, got, want)
		}
		if got, want := m.ClassifyDenoised(v), refClassifyDenoised(m, v); !sameVerdict(got, want) {
			t.Fatalf("ClassifyDenoised(%v) = %+v, map scan gives %+v", v, got, want)
		}
	})
}
