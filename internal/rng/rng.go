// Package rng provides deterministic, splittable pseudo-random number
// generation and the distribution samplers used by the traffic simulator.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every run is fully determined by a single 64-bit seed, and independent
// subsystems (arrival processes on different entry roads, route choices,
// ...) draw from independent named streams derived from that seed, so
// adding a consumer never perturbs the draws seen by another.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64, both implemented here so the library depends only on the
// standard library and produces identical sequences on every platform.
package rng

import "math"

// splitMix64 advances the given state and returns the next splitmix64
// output. It is used for seeding and for deriving stream keys.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString folds a stream label into a 64-bit key (FNV-1a).
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct one with New or Source.Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed via splitmix64.
func New(seed uint64) *Source {
	var src Source
	st := seed
	for i := range src.s {
		src.s[i] = splitMix64(&st)
	}
	// xoshiro must not start in the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is the xoshiro256** step, the one place it is written: it
// returns the output for state (s0, s1, s2, s3) and the advanced state.
// It takes and returns the words by value so the bulk samplers below
// keep the generator in registers across their loops.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	out, s0, s1, s2, s3 := next(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Split derives an independent child generator identified by label.
// Splitting does not advance the parent, so the set of child streams a
// program creates — and the order it creates them in — never changes the
// numbers any individual stream produces.
func (r *Source) Split(label string) *Source {
	st := r.s[0] ^ rotl(r.s[2], 29) ^ hashString(label)
	var child Source
	for i := range child.s {
		child.s[i] = splitMix64(&st)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 0x9e3779b97f4a7c15
	}
	return &child
}

// SplitIndexed derives an independent child generator identified by a label
// and an index, convenient for per-entity streams ("arrivals", road ID).
func (r *Source) SplitIndexed(label string, index int) *Source {
	st := r.s[0] ^ rotl(r.s[2], 29) ^ hashString(label) ^ (uint64(index)+1)*0xd1342543de82ef95
	var child Source
	for i := range child.s {
		child.s[i] = splitMix64(&st)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 0x9e3779b97f4a7c15
	}
	return &child
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand; callers validate n at configuration time.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi = t >> 32
	t = aLo*bHi + mid
	hi += t >> 32
	lo |= (t & mask) << 32
	hi += aHi * bHi
	return hi, lo
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Binomial returns a Binomial(n, p)-distributed count: the number of
// successes in n independent trials of probability p. The sensing layer
// uses it for per-vehicle penetration-rate sampling (each queued vehicle
// is a connected vehicle with probability p). Degenerate parameters are
// draw-free — p <= 0 returns 0 and p >= 1 returns n without consuming
// any random bits — so a perfect-penetration sensor stays a pure
// function of the observed state.
//
// The count equals that of n trials Float64() < p, and the stream ends
// where those trials leave it (see bernoulliThreshold); the loop keeps
// the generator state in locals and counts without a branch per trial.
func (r *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Direct Bernoulli summation: n is a queue length (bounded by road
	// capacity), so the exact O(n) method beats the setup cost of the
	// usual inversion/BTPE samplers and keeps the draw count a simple
	// deterministic function of n.
	t := bernoulliThreshold(p)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var u uint64
	k := 0
	for i := 0; i < n; i++ {
		u, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		k += int(success(u, t))
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return k
}

// BernoulliPrefix runs len(cum)-1 Bernoulli(p) trials and stores their
// running success counts: cum[0] = 0 and cum[i] counts the successes
// among the first i trials, so the successes of trials [a, b) are
// cum[b]-cum[a]. Consecutive Binomial(n1, p), Binomial(n2, p), ... calls
// equal the differences over consecutive runs of n1, n2, ... trials of
// one BernoulliPrefix, with the stream left at the same place; that is
// what lets a caller draw many counts in one loop. Degenerate p is
// draw-free, as in Binomial. An empty cum is a no-op.
func (r *Source) BernoulliPrefix(cum []int32, p float64) {
	if len(cum) == 0 {
		return
	}
	switch {
	case p <= 0:
		clear(cum)
		return
	case p >= 1:
		for i := range cum {
			cum[i] = int32(i)
		}
		return
	}
	t := bernoulliThreshold(p)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var u uint64
	var k int32
	cum[0] = 0
	trials := cum[1:]
	for i := range trials {
		u, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		k += int32(success(u, t))
		trials[i] = k
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// bernoulliThreshold returns ceil(p·2⁵³) for p in (0, 1), the integer
// form of the test Float64() < p: Float64 is m/2⁵³ for the integer
// m = u>>11 < 2⁵³, both the division and the product p·2⁵³ only rescale
// by a power of two and are exact, and for an integer m, m < x holds
// exactly when m < ceil(x).
func bernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// success reports the trial (u>>11) < t as 1 or 0 without a branch:
// both sides are below 2⁶³, so the difference wraps to a value with
// its top bit set exactly when the left side is the smaller.
func success(u, t uint64) uint64 { return (u>>11 - t) >> 63 }

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean yields 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0); Float64 is in [0,1) so 1-u is in (0,1].
	return -mean * math.Log(1-u)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's product-of-uniforms method for small means and a normal
// approximation for large ones (mean > 60), which is ample for traffic
// arrival counts per mini-slot.
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 || mean > 60 {
		// The limit is only consulted by the Knuth branch.
		return r.PoissonWithLimit(mean, 0)
	}
	return r.PoissonWithLimit(mean, math.Exp(-mean))
}

// PoissonWithLimit is Poisson for callers that sample the same mean every
// slot and cache limit = exp(-mean), keeping the transcendental out of the
// per-slot hot path. It produces the identical sequence to Poisson.
func (r *Source) PoissonWithLimit(mean, limit float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean > 60:
		// Normal approximation with continuity correction.
		n := float64(r.Norm()*math.Sqrt(mean)) + mean + 0.5
		if n < 0 {
			return 0
		}
		return int(n)
	default:
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
}

// Norm returns a standard normal variate (Box–Muller).
func (r *Source) Norm() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Categorical draws an index from the discrete distribution given by
// weights. Non-positive weights are treated as zero. If every weight is
// zero the last index is returned, so a degenerate distribution still
// yields a valid index.
func (r *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return len(weights) - 1
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
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
