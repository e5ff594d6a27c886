package attack

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"gpuleak/internal/android"
	"gpuleak/internal/channel"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

func TestClassifyExactCentroids(t *testing.T) {
	m := tinyModel()
	for s, c := range m.Keys {
		v := m.Classify(c)
		if !v.IsKey || string(v.R) != s {
			t.Fatalf("centroid %q classified as %+v", s, v)
		}
		if v.Dist != 0 {
			t.Fatalf("exact centroid distance %v", v.Dist)
		}
	}
	for _, n := range m.Noise {
		v := m.Classify(n.V)
		if !v.IsNoise || v.Noise != n.Class {
			t.Fatalf("noise centroid %s classified as %+v", n.Class, v)
		}
	}
}

func TestClassifyRejectsGarbage(t *testing.T) {
	m := tinyModel()
	var junk trace.Vec
	junk[0], junk[3] = 5000, 99999
	v := m.Classify(junk)
	if v.IsKey || v.IsNoise {
		t.Fatalf("garbage accepted: %+v", v)
	}
}

func TestClassifyRatioTestGuardsCloseCalls(t *testing.T) {
	// A point exactly between the two key centroids must not classify.
	m := tinyModel()
	mid := keyA().Add(keyB()).Scale(0.5)
	if v := m.Classify(mid); v.IsKey {
		t.Fatalf("midpoint classified as %q", v.R)
	}
}

func TestClassifyDenoisedSubtractsEachNoiseClass(t *testing.T) {
	m := tinyModel()
	for _, n := range m.Noise {
		merged := keyB().Add(n.V)
		v := m.ClassifyDenoised(merged)
		if !v.IsKey || v.R != 'b' {
			t.Fatalf("key+%s not decomposed: %+v", n.Class, v)
		}
	}
}

// negWeightModel is tinyModel read back through ReadModel with a negative
// first weight. Dist clamps only a zero weight, so the noise index must
// window dim 0 by the signed weight too: clamping it to 1 made the window
// skip the nearest noise centroid.
func negWeightModel(t testing.TB) *Model {
	t.Helper()
	m := tinyModel()
	m.Weights[0] = -0.01
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// bruteNearestNoise is nearestNoiseTo as a scan of every noise centroid:
// min(Cth+1, Dist to each).
func bruteNearestNoise(m *Model, r trace.Vec) float64 {
	best := m.Cth + 1
	for _, n := range m.Noise {
		if d := r.Dist(n.V, m.Weights); d < best {
			best = d
		}
	}
	return best
}

func TestNearestNoiseToMatchesBruteForce(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Model
	}{{"tiny", tinyModel()}, {"negative-w0", negWeightModel(t)}} {
		m := c.m
		m.buildIndex()
		var zero trace.Vec
		nearest := func(v trace.Vec) float64 { return m.nearestNoiseTo(&v, &zero, m.Cth+1) }
		check := func(v trace.Vec) bool {
			return math.Float64bits(nearest(v)) == math.Float64bits(bruteNearestNoise(m, v))
		}
		// 300 raw units from the popup-hide signature in dim 0 and 4 in
		// dim 3: distance 5 under w0 = -0.01, but 13 (Cth+1) from a
		// window that weighs dim 0 by 1.
		var far trace.Vec
		far[0], far[1], far[2], far[3] = 390, 35, 8, 904
		if !check(far) {
			t.Errorf("%s: nearestNoiseTo(%v) = %v, brute force %v", c.name, far, nearest(far), bruteNearestNoise(m, far))
		}
		f := func(a, b, c, d uint16) bool {
			var v trace.Vec
			v[0] = float64(a % 200)
			v[1] = float64(b % 80)
			v[2] = float64(c % 30)
			v[3] = float64(d % 1500)
			return check(v)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// refClassify is Classify as a scan of the Keys map: the reference the
// rune-sorted scan must reproduce verdict for verdict.
func refClassify(m *Model, v trace.Vec) Verdict {
	bestKey, altKey, d1, d2 := rune(0), rune(0), math.Inf(1), math.Inf(1)
	for s, c := range m.Keys {
		r := firstRune(s)
		d := v.Dist(c, m.Weights)
		if d < d1 || (d <= d1 && r < bestKey) {
			d2, altKey, d1, bestKey = d1, bestKey, d, r
		} else if d < d2 || (d <= d2 && r < altKey) {
			d2, altKey = d, r
		}
	}
	bestNoise, bestNoiseDist := NoiseClass(""), math.Inf(1)
	for _, n := range m.Noise {
		if d := v.Dist(n.V, m.Weights); d < bestNoiseDist {
			bestNoiseDist, bestNoise = d, n.Class
		}
	}
	if d1 <= m.Cth && d1 <= 0.65*d2 && d1 <= bestNoiseDist {
		return Verdict{IsKey: true, R: bestKey, Dist: d1, Alt: altKey, AltDist: d2}
	}
	if bestNoiseDist <= m.noiseTol() && bestNoiseDist <= d1 {
		return Verdict{IsNoise: true, Noise: bestNoise, Dist: bestNoiseDist}
	}
	return Verdict{Dist: math.Min(d1, bestNoiseDist)}
}

// refClassifyDenoised is ClassifyDenoised as a scan of the Keys map, with
// each residual's nearest noise found by brute force, so that it shares
// neither the noise index nor the pruning with the code under test.
func refClassifyDenoised(m *Model, v trace.Vec) Verdict {
	out := refClassify(m, v)
	if out.IsKey || out.IsNoise {
		return out
	}
	bestKey, d1, d2 := rune(0), math.Inf(1), math.Inf(1)
	for s, c := range m.Keys {
		r := firstRune(s)
		d := bruteNearestNoise(m, v.Sub(c))
		if d < d1 || (d <= d1 && r < bestKey) {
			d2, d1, bestKey = d1, d, r
		} else if d < d2 {
			d2 = d
		}
	}
	if d1 <= m.Cth && d1 <= 0.65*d2 {
		return Verdict{IsKey: true, R: bestKey, Dist: d1}
	}
	return out
}

// TestClassifyMatchesMapScan pins both classify scans to the map-scan
// reference over every counter delta of sessions on three configurations:
// the default KGSL one, a loaded and jittered KGSL one (merged deltas
// take the denoising path), and the proccount channel, whose key families
// share centroids and so produce exact distance ties.
func TestClassifyMatchesMapScan(t *testing.T) {
	cases := []struct {
		name    string
		cfg     victim.Config
		channel string
	}{
		{"kgsl", baseVictimConfig(), ""},
		{"kgsl-loaded", victim.Config{Device: android.Pixel5, App: android.Amex, Keyboard: keyboard.Swift, Seed: 11, RenderJitter: 0.005, GPULoad: 0.3}, ""},
		{"proccount", baseVictimConfig(), proccount.Name},
	}
	denoised, accepted := 0, 0
	for _, c := range cases {
		m, err := Collect(c.cfg, CollectOptions{Repeats: 1, Channel: c.channel})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := channel.Get(c.channel)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Seed += 1000
		sess := victim.New(cfg)
		sess.Run(input.Typing("Tr0ub4dor &3 horse", input.Volunteers[2], input.SpeedAny, sim.NewRand(cfg.Seed), 700*sim.Millisecond))
		probe, err := ch.Open(sess)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSamplerTaxonomy(probe, ch.Interval, RetryPolicy{}, ch.Taxonomy)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.Collect(0, sess.End)
		if err != nil {
			t.Fatal(err)
		}
		ds := tr.Deltas()
		if len(ds) == 0 {
			t.Fatalf("%s: session produced no deltas", c.name)
		}
		for _, d := range ds {
			if got, want := m.Classify(d.V), refClassify(m, d.V); got != want {
				t.Fatalf("%s: Classify(%v) = %+v, map scan gives %+v", c.name, d.V, got, want)
			}
			if got, want := m.ClassifyDenoised(d.V), refClassifyDenoised(m, d.V); got != want {
				t.Fatalf("%s: ClassifyDenoised(%v) = %+v, map scan gives %+v", c.name, d.V, got, want)
			}
			if v := m.Classify(d.V); !v.IsKey && !v.IsNoise {
				denoised++
				if m.ClassifyDenoised(d.V).IsKey {
					accepted++
				}
			}
		}
	}
	if denoised == 0 {
		t.Fatal("no delta reached the denoising scan")
	}
	if accepted == 0 {
		t.Fatalf("the denoising scan accepted none of the %d deltas it saw", denoised)
	}
}

// TestProcCountKeysCollapseIntoRowFamilies pins the proccount package
// doc's claim: the OS counters see draw durations but not the per-counter
// overdraw structure, so per-key signatures collapse into row-sized
// families that share one centroid. The KGSL model of the same
// configuration keeps every key apart.
func TestProcCountKeysCollapseIntoRowFamilies(t *testing.T) {
	pm, err := Collect(baseVictimConfig(), CollectOptions{Repeats: 2, Channel: proccount.Name})
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(m *Model) int {
		set := map[trace.Vec]bool{}
		for _, v := range m.Keys {
			set[v] = true
		}
		return len(set)
	}
	if keys, d := len(pm.Keys), distinct(pm); keys != 95 || d != 11 {
		t.Errorf("proccount model: %d keys in %d distinct centroids, want 95 in 11", keys, d)
	}
	if km := sharedModel(t); len(km.Keys) != 95 || distinct(km) != 95 {
		t.Errorf("kgsl model: %d keys in %d distinct centroids, want 95 in 95", len(km.Keys), distinct(km))
	}
	rows := map[trace.Vec]bool{}
	for _, row := range []string{"qwertyuiop", "asdfghjkl", "zxcvbnm"} {
		c := pm.Keys[row[:1]]
		for _, r := range row {
			if pm.Keys[string(r)] != c {
				t.Errorf("proccount: %q does not share the centroid of its row %q", r, row)
			}
		}
		rows[c] = true
	}
	if len(rows) != 3 {
		t.Errorf("proccount: the three letter rows share %d centroids, want 3", len(rows))
	}
}

// TestClassifyExactTiesPickSmallestRune crafts exact distance ties: three
// keys sharing one centroid, and two keys whose residuals after removing
// a noise signature coincide. The verdicts must name the smallest rune
// (and the next one as runner-up), as the map-scan reference does, for
// every map iteration order.
func TestClassifyExactTiesPickSmallestRune(t *testing.T) {
	shared := keyA()
	for i := 0; i < 50; i++ {
		m := tinyModel()
		m.Keys = map[string]trace.Vec{"q": shared, "k": shared, "z": shared, "b": keyB()}
		v := m.Classify(shared)
		if !v.IsKey || v.R != 'k' || v.Alt != 'q' || v != refClassify(m, shared) {
			t.Fatalf("three-way tie: %+v, want key 'k' with runner-up 'q' (reference %+v)", v, refClassify(m, shared))
		}
		m = tinyModel()
		m.Keys = map[string]trace.Vec{"y": keyB(), "x": keyB(), "a": keyA()}
		merged := keyB().Add(m.Noise[0].V)
		v = m.ClassifyDenoised(merged)
		if !v.IsKey || v.R != 'x' || v != refClassifyDenoised(m, merged) {
			t.Fatalf("denoised tie: %+v, want key 'x' (reference %+v)", v, refClassifyDenoised(m, merged))
		}
	}
}

func TestModelJSONPreservesThresholds(t *testing.T) {
	m := tinyModel()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cth != m.Cth || back.NoiseTol != m.NoiseTol {
		t.Fatalf("thresholds lost: %v/%v", back.Cth, back.NoiseTol)
	}
	if len(back.Noise) != len(m.Noise) {
		t.Fatalf("noise centroids lost: %d", len(back.Noise))
	}
	// The lazily built index must reconstruct after deserialization.
	merged := keyA().Add(m.Noise[0].V)
	if v := back.ClassifyDenoised(merged); !v.IsKey || v.R != 'a' {
		t.Fatalf("deserialized model cannot denoise: %+v", v)
	}
}

func TestNoiseTolFallback(t *testing.T) {
	m := tinyModel()
	m.NoiseTol = 0
	if got := m.noiseTol(); got != m.Cth/3 {
		t.Fatalf("legacy fallback = %v", got)
	}
}

func TestModelRunes(t *testing.T) {
	m := tinyModel()
	rs := m.Runes()
	if len(rs) != 2 || rs[0] != 'a' || rs[1] != 'b' {
		t.Fatalf("Runes = %q", string(rs))
	}
}

func TestMinInterKeyDistance(t *testing.T) {
	m := tinyModel()
	want := keyA().Dist(keyB(), m.Weights)
	if got := m.MinInterKeyDistance(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MinInterKeyDistance = %v, want %v", got, want)
	}
}

func TestModelKeyString(t *testing.T) {
	k := ModelKey{Device: "OnePlus 8 Pro", Resolution: "1080x2376", Keyboard: "gboard", RefreshHz: 60}
	if k.String() != "OnePlus 8 Pro/1080x2376/gboard@60" {
		t.Fatalf("String = %q", k.String())
	}
}
