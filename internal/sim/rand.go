package sim

import "math"

// Rand is a deterministic pseudo-random source (splitmix64/xoshiro-style)
// with the distribution helpers the simulation needs. It intentionally does
// not wrap math/rand so that the stream is stable across Go releases.
type Rand struct {
	s [4]uint64
}

// NewRand returns a Rand seeded from seed via splitmix64, matching the
// reference xoshiro256** initialization.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A zero state would be absorbing; splitmix cannot produce all-zero
	// from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (r *Rand) Norm(mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + std*z
}

// LogNormal returns exp(N(mu, sigma)); used for human typing intervals,
// which are well known to be log-normally distributed.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent child generator. Use it to give each
// subsystem its own stream so that adding draws in one subsystem does not
// perturb another.
func (r *Rand) Split() *Rand {
	return NewRand(int64(r.Uint64()))
}

// TaskSeed derives the seed of parallel task number task from a base
// seed. It is a pure function of (seed, task) — never of scheduling — so
// a worker pool that seeds each task this way produces results that are
// byte-identical at any worker count. The mix is one splitmix64 round
// over the base seed offset by the task's golden-ratio stride, giving
// well-separated streams even for adjacent task indices.
func TaskSeed(seed int64, task int) int64 {
	z := uint64(seed) + uint64(task+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
