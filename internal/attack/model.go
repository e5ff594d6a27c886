// Package attack implements the paper's primary contribution: the GPU
// performance counter eavesdropping attack. It contains the counter
// sampler (§4), the offline-phase collector and classifier construction
// (§3.2), the online inference engine with duplication/split/noise
// handling (Algorithm 1, §5.1), app-switch detection (§5.2), input
// correction tracking (§5.3), and device/configuration recognition (§3.2).
package attack

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"gpuleak/internal/trace"
)

// ModelKey identifies the device configuration a classifier was trained
// for: one classification model is built per (device, resolution,
// keyboard) combination and preloaded into the attacking app (§3.2).
type ModelKey struct {
	Device     string `json:"device"`
	Resolution string `json:"resolution"`
	Keyboard   string `json:"keyboard"`
	RefreshHz  int    `json:"refresh_hz"`
	// Channel tags the side channel the model was trained on. The default
	// (KGSL) channel is canonically the empty string, so models — and
	// their serialized JSON — from before the channel plane existed are
	// identical to KGSL models trained today.
	Channel string `json:"channel,omitempty"`
}

// String formats the key as device/resolution/keyboard@hz, with
// ":channel" appended for a non-default channel. It appends into one
// stack buffer, so the string is its only allocation.
func (k ModelKey) String() string {
	var buf [96]byte
	b := append(buf[:0], k.Device...)
	b = append(append(b, '/'), k.Resolution...)
	b = append(append(b, '/'), k.Keyboard...)
	b = strconv.AppendInt(append(b, '@'), int64(k.RefreshHz), 10)
	if k.Channel != "" {
		b = append(append(b, ':'), k.Channel...)
	}
	return string(b)
}

// NoiseClass labels the non-keypress delta families the offline phase
// learns so the online classifier can reject them (§5.1: the models are
// used "to distinguish between GPU hardware events caused by key presses
// and other system factors").
type NoiseClass string

// Noise families observed during offline collection.
const (
	NoisePopupHide  NoiseClass = "popup-hide"
	NoiseEcho       NoiseClass = "echo"
	NoiseBlink      NoiseClass = "cursor-blink"
	NoisePageSwitch NoiseClass = "page-switch"
	NoiseNotif      NoiseClass = "notification"
	NoiseLaunch     NoiseClass = "app-launch"
)

// NoiseCentroid is one learned non-key delta signature.
type NoiseCentroid struct {
	Class NoiseClass `json:"class"`
	V     trace.Vec  `json:"v"`
}

// Model is the per-configuration classifier: nearest-centroid over the
// 11-dimensional delta space with a rejection threshold Cth, plus learned
// noise signatures and the launch fingerprint used for device recognition.
//
// The classify scans work on key families: keys whose centroids are
// bit-identical, as whole rows of keys are on a narrow OS-counter
// channel. A family's distance is computed once and shared by its keys,
// so a proccount model's 95 keys cost 11 distance sums, not 95. Classify
// also measures the noise signatures first: when the nearest lies
// within NoiseTol and no key centroid can lie within that distance, the
// delta is noise and the key scan is skipped. Neither changes a verdict.
type Model struct {
	Key ModelKey `json:"key"`
	// Keys maps each typable rune to its popup delta centroid.
	Keys map[string]trace.Vec `json:"keys"`
	// Noise holds non-key delta centroids (popup-hide, echo, blink, ...).
	Noise []NoiseCentroid `json:"noise"`
	// Weights normalize each counter dimension before distance
	// computation (1/scale per dimension).
	Weights trace.Vec `json:"weights"`
	// Cth is the classification threshold of §5.1: deltas farther than Cth
	// from every key centroid are not key presses.
	Cth float64 `json:"cth"`
	// NoiseTol is the acceptance bound for noise centroids. Non-key UI
	// events are deterministic redraws, so observed noise deltas match
	// their learned signatures near-exactly; a tight bound prevents split
	// fragments from being swallowed as noise.
	NoiseTol float64 `json:"noise_tol"`
	// Launch is the app-launch frame fingerprint for device recognition.
	Launch trace.Vec `json:"launch"`

	// families holds each key family's centroid once, with its runes
	// ascending, so the classify scans range over a slice and decode no
	// map keys; the families run in order of their first rune, and their
	// runes share one array. famByDim0 lists the family numbers by their
	// centroid's first weighted dimension, which Classify binary-searches
	// for the noise-first rule; noiseByDim0 sorts the noise centroids the
	// same way for the denoising scan's residual windows; weights is
	// Weights.Clamped(), the weights every scan multiplies by. All are
	// built lazily (so also after deserialization) at the first
	// classification, which freezes Weights, Keys and Noise for this
	// model: derive variants with Clone. indexOnce makes the build safe
	// under concurrent classification.
	indexOnce   sync.Once
	families    []family
	famByDim0   []int
	noiseByDim0 []noiseEntry
	weights     trace.Vec
}

// family is a set of keys whose centroids are bit-identical.
type family struct {
	c     trace.Vec
	runes []rune
}

type noiseEntry struct {
	key0 float64
	v    trace.Vec
}

// Verdict is the outcome of classifying one delta.
type Verdict struct {
	IsKey bool
	R     rune
	Dist  float64
	// Alt is the runner-up key and AltDist its distance; the gap to Dist
	// is the classification margin the §7.1 guessing strategy exploits.
	Alt     rune
	AltDist float64
	// Noise is set when the delta matched a learned noise family.
	Noise   NoiseClass
	IsNoise bool
}

// Classify decides whether v is a key press, a known noise event, or
// unknown. The model's weights are 1/sigma per counter dimension, so
// weighted Euclidean distance is measured in observation-noise standard
// deviations; the thresholds Cth and NoiseTol are in those units. A key
// press requires the nearest key centroid to be (a) within Cth, (b)
// markedly closer than the second-nearest key (a ratio test —
// perturbations from coinciding system events must not flip the
// decision), and (c) at least as close as any noise centroid. A delta is
// noise when a noise centroid matches within NoiseTol. Everything else
// is unknown (typically a fragment of a split change).
func (m *Model) Classify(v trace.Vec) Verdict {
	m.buildIndex()
	bestNoise, bestNoiseDist := NoiseClass(""), math.Inf(1)
	for i := range m.Noise {
		n := &m.Noise[i]
		ss, ok := trace.DistSqWithin(&v, &n.V, &m.weights, bestNoiseDist*bestNoiseDist)
		if !ok {
			continue
		}
		if d := math.Sqrt(ss); d < bestNoiseDist {
			bestNoiseDist = d
			bestNoise = n.Class
		}
	}
	// Noise first: a key verdict needs a key centroid at least as close
	// as the nearest noise centroid, so when none can lie that close a
	// noise match within NoiseTol is the verdict whatever the keys say.
	if bestNoiseDist <= m.noiseTol() && !m.keyMayLieWithin(&v, bestNoiseDist) {
		return Verdict{IsNoise: true, Noise: bestNoise, Dist: bestNoiseDist}
	}
	bestKey, altKey, d1, d2 := rune(0), rune(0), math.Inf(1), math.Inf(1)
	bound := math.Inf(1)
	fams := m.families
	for i := range fams {
		fam := &fams[i]
		// A family whose partial sum reaches bound lies strictly farther
		// than the runner-up, so it can displace neither verdict. A tie
		// with the runner-up must still be scanned: the families run in
		// order of their first rune, so this one's may precede a runner-up
		// that is an earlier family's second rune.
		ss, ok := trace.DistSqWithin(&v, &fam.c, &m.weights, bound)
		if !ok {
			continue
		}
		d := math.Sqrt(ss)
		// Exact distance ties break toward the smaller rune: within a
		// family every key ties, and the scan order must never decide
		// the verdict.
		for _, r := range fam.runes {
			if d < d1 || (d <= d1 && r < bestKey) {
				d2 = d1
				altKey = bestKey
				d1 = d
				bestKey = r
				bound = beyond(d2)
			} else if d < d2 || (d <= d2 && r < altKey) {
				d2 = d
				altKey = r
				bound = beyond(d2)
			}
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

// beyond returns a squared-distance bound that only a distance strictly
// greater than d reaches: the square of the next float above d. Sqrt is
// monotone and maps a rounded square back to its root while the square
// is a normal float; the 2⁻¹⁰⁰⁰ floor covers a d so small that it is not,
// since every sum of at least 2⁻¹⁰⁰⁰ has a root of at least 2⁻⁵⁰⁰.
func beyond(d float64) float64 {
	next := math.Nextafter(d, math.Inf(1))
	return max(next*next, 0x1p-1000)
}

// keyMayLieWithin reports whether some key centroid may lie within
// distance r of v. It is false only when no family's first weighted
// dimension falls in a window around v's: r wide, plus 2⁻⁴⁰ of the
// magnitudes, which covers the rounding of both products, of their
// difference and of the distance sum (a sum is at least its first term,
// whose rounded square Sqrt maps back to it), plus 2⁻⁵⁰⁰ for a first
// term too small to square. A window that is not finite shows nothing.
func (m *Model) keyMayLieWithin(v *trace.Vec, r float64) bool {
	t := v[0] * m.weights[0]
	slack := r + 0x1p-40*(math.Abs(t)+r) + 0x1p-500
	lo, hi := t-slack, t+slack
	if !(hi-lo < math.Inf(1)) {
		return true
	}
	// The first family whose first weighted dimension is >= lo, by
	// sort.Search's rule; cmp.Less sorted any NaN first, and it fails the
	// test like a value below lo.
	idx := m.famByDim0
	i, j := 0, len(idx)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(m.famKey0(idx[h]) >= lo) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(idx) && m.famKey0(idx[i]) <= hi
}

// ClassifyDenoised extends Classify for deltas in which a key press
// merged with a system event inside one sampling window: it retries the
// classification after subtracting each learned noise signature and
// accepts the best resulting key verdict. Only key verdicts are promoted
// this way — declaring compound noise from a subtraction would swallow
// split key fragments. Each family's residual is searched once, its
// noise search windowed on the first weighted dimension and bounded by
// the runner-up found so far, keeping the fallback within the paper's
// §7.6 sub-0.1 ms inference budget.
func (m *Model) ClassifyDenoised(v trace.Vec) Verdict {
	out := m.Classify(v)
	if out.IsKey || out.IsNoise {
		return out
	}
	bestKey, d1, d2 := rune(0), math.Inf(1), math.Inf(1)
	fams := m.families
	for i := range fams {
		fam := &fams[i]
		// Each search starts from the runner-up: a family whose residual
		// cannot beat d2 changes neither d1 nor d2, because the families
		// run in order of their first rune, so a later family's key never
		// wins a tie.
		d := m.nearestNoiseTo(&v, &fam.c, min(m.Cth+1, d2))
		for _, r := range fam.runes {
			if d < d1 || (d <= d1 && r < bestKey) {
				d2 = d1
				d1 = d
				bestKey = r
			} else if d < d2 {
				d2 = d
			}
		}
	}
	if d1 <= m.Cth && d1 <= 0.65*d2 {
		return Verdict{IsKey: true, R: bestKey, Dist: d1}
	}
	return out
}

// buildIndex groups the key centroids into families, orders the
// families by first rune and by first weighted dimension, sorts the noise
// centroids by their first weighted dimension so residual lookups can
// window instead of scanning, and clamps the weights once. Safe for
// concurrent callers.
func (m *Model) buildIndex() {
	m.indexOnce.Do(func() {
		type key struct {
			r rune
			f int
			v trace.Vec
		}
		keys := make([]key, 0, len(m.Keys))
		for s, c := range m.Keys {
			keys = append(keys, key{r: firstRune(s), v: c})
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].r < keys[j].r })
		// Families are numbered as their first rune comes up. They are
		// told apart by bit pattern, so a NaN or a signed zero joins only
		// its exact twin.
		var first []int // each family's first key, an index into keys
		for i := range keys {
			f := 0
			for f < len(first) && !sameBits(&keys[first[f]].v, &keys[i].v) {
				f++
			}
			if f == len(first) {
				first = append(first, i)
			}
			keys[i].f = f
		}
		// Lay the keys out family by family, each family's runes still
		// ascending, and give every family its stretch of one rune array.
		sort.SliceStable(keys, func(i, j int) bool { return keys[i].f < keys[j].f })
		runes := make([]rune, len(keys))
		m.families = make([]family, len(first))
		lo := 0
		for i, k := range keys {
			runes[i] = k.r
			if i+1 == len(keys) || keys[i+1].f != k.f {
				m.families[k.f] = family{c: k.v, runes: runes[lo : i+1 : i+1]}
				lo = i + 1
			}
		}

		m.weights = m.Weights.Clamped()
		m.famByDim0 = make([]int, len(m.families))
		for f := range m.famByDim0 {
			m.famByDim0[f] = f
		}
		sort.Slice(m.famByDim0, func(i, j int) bool {
			return cmp.Less(m.famKey0(m.famByDim0[i]), m.famKey0(m.famByDim0[j]))
		})

		idx := make([]noiseEntry, 0, len(m.Noise))
		for _, n := range m.Noise {
			idx = append(idx, noiseEntry{key0: n.V[0] * m.weights[0], v: n.V})
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i].key0 < idx[j].key0 })
		m.noiseByDim0 = idx
	})
}

// sameBits reports whether a and b are bit-identical.
func sameBits(a, b *trace.Vec) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// famKey0 returns family f's centroid's first weighted dimension, the
// order of famByDim0.
func (m *Model) famKey0(f int) float64 {
	return m.families[f].c[0] * m.weights[0]
}

// nearestNoiseTo returns the distance from the residual v − k to the
// nearest noise centroid when that is below bound, and bound otherwise:
// entries whose first weighted dimension is already farther than the
// current bound cannot beat it. The index and the target share the
// clamped weight, so |key0 − target| is |w0·Δ0|, which lower-bounds the
// distance for a weight of either sign.
func (m *Model) nearestNoiseTo(v, k *trace.Vec, bound float64) float64 {
	idx := m.noiseByDim0
	target := (v[0] - k[0]) * m.weights[0]
	// The first entry with key0 >= target, by sort.Search's rule.
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(idx[mid].key0 >= target) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := bound
	// Expand outward from the insertion point until dim-0 alone exceeds
	// the best bound.
	lo = hi - 1
	for {
		advanced := false
		if hi < len(idx) && idx[hi].key0-target <= best {
			best = m.nearer(v, k, &idx[hi].v, best)
			hi++
			advanced = true
		}
		if lo >= 0 && target-idx[lo].key0 <= best {
			best = m.nearer(v, k, &idx[lo].v, best)
			lo--
			advanced = true
		}
		if !advanced {
			break
		}
	}
	return best
}

// nearer returns the distance from the residual v − k to c when it is
// below best, and best otherwise. It adds trace.DistSqWithin's terms
// over v.Sub(*k) without building the residual: each term's difference
// is (v[i] − k[i]) − c[i], so a completed sum equals Dist's bit for bit.
func (m *Model) nearer(v, k, c *trace.Vec, best float64) float64 {
	bound := best * best
	var ss float64
	for i := range v {
		d := (v[i] - k[i] - c[i]) * m.weights[i]
		ss += d * d
		if ss >= bound {
			return best
		}
	}
	if d := math.Sqrt(ss); d < best {
		return d
	}
	return best
}

// Clone returns an independent copy of the model (exported state only;
// lazy caches rebuild on demand). Use it to derive ablation variants with
// modified thresholds or weights.
func (m *Model) Clone() *Model {
	out := &Model{
		Key:      m.Key,
		Keys:     make(map[string]trace.Vec, len(m.Keys)),
		Noise:    append([]NoiseCentroid(nil), m.Noise...),
		Weights:  m.Weights,
		Cth:      m.Cth,
		NoiseTol: m.NoiseTol,
		Launch:   m.Launch,
	}
	for k, v := range m.Keys {
		out.Keys[k] = v
	}
	return out
}

// noiseTol returns the noise acceptance bound, with a fallback for models
// serialized before the field existed.
func (m *Model) noiseTol() float64 {
	if m.NoiseTol > 0 {
		return m.NoiseTol
	}
	return m.Cth / 3
}

// MinInterKeyDistance returns the smallest pairwise weighted distance
// between key centroids — the resolution limit of the side channel on
// this configuration.
func (m *Model) MinInterKeyDistance() float64 {
	names := make([]string, 0, len(m.Keys))
	for s := range m.Keys {
		names = append(names, s)
	}
	sort.Strings(names)
	min := math.Inf(1)
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if d := m.Keys[names[i]].Dist(m.Keys[names[j]], m.Weights); d < min {
				min = d
			}
		}
	}
	return min
}

// Runes lists the typable runes the model knows, sorted.
func (m *Model) Runes() []rune {
	out := make([]rune, 0, len(m.Keys))
	for s := range m.Keys {
		out = append(out, firstRune(s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func firstRune(s string) rune {
	for _, r := range s {
		return r
	}
	return 0
}

// WriteJSON serializes the model (§7.6 reports ~3.59 kB per model).
func (m *Model) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}

// ReadModel deserializes a model written by WriteJSON.
func ReadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("attack: decoding model: %w", err)
	}
	if len(m.Keys) == 0 {
		return nil, fmt.Errorf("attack: model has no key centroids")
	}
	return &m, nil
}
