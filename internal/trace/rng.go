package trace

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**) used throughout the simulator. A dedicated implementation
// (rather than math/rand) guarantees that trace generation is reproducible
// across Go releases, which matters because the experiment outputs recorded
// in EXPERIMENTS.md must be regenerable bit-for-bit.
type RNG struct {
	s [4]uint64
}

// NewRNG seeds an RNG. Distinct seeds give independent-looking streams; the
// seed is expanded with splitmix64 so that small seeds (0, 1, 2, ...) are
// safe.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
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

// Intn returns a uniform int in [0, n). It panics if n <= 0. For powers
// of two the modulo is a mask — the same bits, so identical draws —
// which keeps the integer divide off the simulator's per-record path
// (bank selection over 16 banks, two-way call-site picks).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: RNG.Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// uniform returns a uniform float64 in [0, 1). The scale factor is the
// exact reciprocal of 2^53 — for powers of two, multiplying is
// bit-identical to dividing and avoids a hardware divide on the per-
// record trace-generation path.
func (r *RNG) uniform() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.uniform() < p }

// Zipf draws from a truncated Zipf-like distribution over [0, n) with skew
// s in (0, ~2]. It uses a simple inverse-CDF over precomputed weights for
// small n; callers cache a Zipf via NewZipf for large n.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over [0,n) with exponent s, drawing
// randomness from rng.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("trace: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		w := 1.0 / pow(float64(i+1), s)
		sum += w
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next draws the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.rng.uniform()
	// Binary search for the first cdf >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pow is a minimal float power for positive bases (avoids importing math in
// the hot path; exactness is irrelevant for workload shaping).
func pow(base, exp float64) float64 {
	// exp in (0,2] for our uses; use exp(log) via the math identity with a
	// short Taylor-free approach: delegate to repeated sqrt-free approach is
	// overkill — just use the standard library.
	return stdPow(base, exp)
}
