package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64). Every stochastic
// element of a simulation draws from a seeded Rand so that runs are exactly
// reproducible; nothing in the repository uses global or time-seeded
// randomness.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent child generator. Children of the same parent
// with different labels produce uncorrelated streams, which lets components
// own private generators derived from one experiment seed.
func (r *Rand) Fork(label uint64) *Rand {
	return NewRand(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics when n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n).
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

// Zipf draws ranks from a Zipf distribution with exponent s over n items
// (ranks 0..n-1, rank 0 most popular). The CDF is precomputed, so Next is a
// binary search. The NetCache/Pegasus case study uses s=1.8 following the
// paper's client configuration.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the distribution. It panics for n <= 0 or s <= 0.
func NewZipf(s float64, n int) *Zipf {
	if n <= 0 || s <= 0 {
		panic("sim: NewZipf needs n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Next draws a rank using r.
func (z *Zipf) Next(r *Rand) int {
	u := r.Float64()
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
