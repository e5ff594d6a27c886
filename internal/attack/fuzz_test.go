package attack

import (
	"bytes"
	"context"
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
// distances tie exactly), the negative-weight model and the near-noise
// model.
func classifyModels(t testing.TB) []*Model {
	procModelOnce.Do(func() {
		procModel, procModelErr = CollectContext(context.Background(), baseVictimConfig(), CollectOptions{Repeats: 1, Channel: proccount.Name})
	})
	if procModelErr != nil {
		t.Fatal(procModelErr)
	}
	return []*Model{sharedModel(t), procModel, negWeightModel(t), nearNoiseModel()}
}

// nearNoiseModel is tinyModel with a third key, 'c', two noise
// tolerances from the cursor-blink signature along dimension 0 alone:
// the delta halfway between them is a key at exactly the noise distance,
// and that key sits on the edge of Classify's noise-first window.
func nearNoiseModel() *Model {
	m := tinyModel()
	c := m.Noise[3].V
	c[0] += 2 * m.NoiseTol
	m.Keys["c"] = c
	return m
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
	// Noise-first ties: a delta whose nearest noise centroid lies within
	// NoiseTol with a key centroid at exactly the same distance must not
	// be answered as noise before the key scan. On the near-noise model
	// the tie lies along dimension 0, on the edge of the window; on the
	// KGSL model the reference picks a midpoint of a key and a noise
	// centroid that it accepts as a key, which ties whatever the weights.
	blink := tiny.Noise[3].V
	f.Add(uint8(3), uint8(2), uint16(0b1111), bits(blink[0]+tiny.NoiseTol, blink[1], blink[2], blink[3]))
	if !seedNoiseTie(f, models[0], 0, bits) {
		f.Fatal("KGSL model: no midpoint of a key and a noise centroid is a key at the noise distance")
	}
	// Proccount families: the midpoint of two family centroids ties the
	// two families exactly; a key plus a noise centroid that equals
	// another family's key plus another noise centroid ties their
	// residuals exactly, at 0; and the runner-up is the best family's
	// second rune both in the denoising scan, where it rejects an offset
	// merge, and at a family's centroid, where another family's first
	// rune lies between the two.
	if !seedFamilyTies(f, models[1], 1, bits) {
		f.Fatal("proccount model: not every kind of family tie was seeded")
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

// seedNoiseTie adds one delta of model mi on which the reference gives a
// key verdict at exactly the nearest noise centroid's distance, within
// NoiseTol: a midpoint of a key and a noise centroid. It reports whether
// there was one.
func seedNoiseTie(f *testing.F, m *Model, mi uint8, bits func(...float64) []byte) bool {
	for ki, r := range m.Runes() {
		for _, n := range m.Noise {
			v := m.Keys[string(r)].Add(n.V).Scale(0.5)
			nd := bruteNearestNoise(m, v)
			if out := refClassify(m, v); out.IsKey && out.Dist == nd && nd <= m.noiseTol() {
				f.Add(mi, uint8(ki), uint16(0x7ff), bits(v[:]...))
				return true
			}
		}
	}
	return false
}

// seedFamilyTies adds four deltas of model mi, whose key families share
// centroids: a midpoint of two family centroids, on which the reference
// finds both at the same distance; a delta that is two families' keys
// plus two different noise centroids, which the reference's denoising
// scan accepts at distance 0; a key plus a noise centroid 0.1 sigma off
// in every dimension, which the denoising scan rejects only because the best family's
// second key is the runner-up; and a family centroid whose key verdict's
// runner-up is the family's second rune while another family's first
// rune lies between the two. It reports whether it found all four.
func seedFamilyTies(f *testing.F, m *Model, mi uint8, bits func(...float64) []byte) bool {
	runes := m.Runes()
	keyIndex := map[rune]int{}
	var firsts []rune // each family's first rune, ascending
	famOf := map[trace.Vec]rune{}
	for i, r := range runes {
		keyIndex[r] = i
		c := m.Keys[string(r)]
		if _, ok := famOf[c]; !ok {
			famOf[c] = r
			firsts = append(firsts, r)
		}
	}
	found := 0
midpoint:
	for i, a := range firsts {
		ca := m.Keys[string(a)]
		for _, b := range firsts[i+1:] {
			cb := m.Keys[string(b)]
			v := ca.Add(cb).Scale(0.5)
			if d := v.Dist(ca, m.Weights); d == v.Dist(cb, m.Weights) && refClassify(m, v).Dist == d {
				f.Add(mi, uint8(keyIndex[a]), uint16(0x7ff), bits(v[:]...))
				found++
				break midpoint
			}
		}
	}
residual:
	for i, a := range firsts {
		for _, b := range firsts[i+1:] {
			for _, na := range m.Noise {
				for _, nb := range m.Noise {
					v := m.Keys[string(a)].Add(na.V)
					if v != m.Keys[string(b)].Add(nb.V) || na.V == nb.V {
						continue
					}
					if out := refClassify(m, v); out.IsKey || out.IsNoise || !refClassifyDenoised(m, v).IsKey {
						continue
					}
					f.Add(mi, uint8(keyIndex[a]), uint16(0x7ff), bits(v[:]...))
					found++
					break residual
				}
			}
		}
	}
	// The same reference over the families' first keys alone accepts an
	// offset merge that the full reference rejects only because the best
	// family's second key ties the first.
	firstsOnly := m.Clone()
	for s, c := range m.Keys {
		if famOf[c] != firstRune(s) {
			delete(firstsOnly.Keys, s)
		}
	}
	w := m.Weights.Clamped()
offset:
	for _, r := range firsts {
		for _, n := range m.Noise {
			x := n.V
			for i := range x {
				x[i] += 0.1 / w[i]
			}
			v := m.Keys[string(r)].Add(x)
			if out := refClassify(m, v); out.IsKey || out.IsNoise || refClassifyDenoised(m, v).IsKey || !refClassifyDenoised(firstsOnly, v).IsKey {
				continue
			}
			f.Add(mi, uint8(keyIndex[r]), uint16(0), bits(x[:]...))
			found++
			break offset
		}
	}
	for ki, r := range runes {
		out := refClassify(m, m.Keys[string(r)])
		if !out.IsKey || famOf[m.Keys[string(out.Alt)]] != out.R {
			continue
		}
		between := false
		for _, first := range firsts {
			between = between || (first > out.R && first < out.Alt)
		}
		if between {
			f.Add(mi, uint8(ki), uint16(0), []byte(nil))
			found++
			break
		}
	}
	return found == 4
}
