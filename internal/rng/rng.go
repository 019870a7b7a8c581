// Package rng provides the deterministic pseudo-random number generator
// used by the workload generators and by stochastic microarchitectural
// choices (e.g. the LLC picking a random set for eager write-back
// candidates, §IV-B1 of the paper).
//
// A dedicated generator — rather than math/rand — keeps every simulation
// bit-for-bit reproducible across Go releases and lets each component own
// an independent stream derived from the run seed.
package rng

import (
	"math"
	"math/bits"
)

// Source is an xorshift128+ generator. The zero value is invalid; use New.
type Source struct {
	s0, s1 uint64
}

// New returns a Source seeded from seed. Any seed, including 0, yields a
// valid non-degenerate state (seeds are passed through splitmix64).
func New(seed uint64) *Source {
	var s Source
	s.s0 = splitmix64(&seed)
	s.s1 = splitmix64(&seed)
	if s.s0 == 0 && s.s1 == 0 {
		s.s1 = 1
	}
	return &s
}

// splitmix64 advances *x and returns the next splitmix64 output. It is the
// standard seeding routine recommended for xorshift-family generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x, y := s.s0, s.s1
	s.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	s.s1 = x
	return x + y
}

// Branch derives an independent child stream. Children created with
// distinct labels from the same parent state are decorrelated.
func (s *Source) Branch(label uint64) *Source {
	seed := s.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	return New(seed)
}

// Uintn returns a uniform value in [0, n). n must be > 0.
func (s *Source) Uintn(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uintn(0)")
	}
	// Multiply-shift mapping (Lemire). The tiny bias is irrelevant for
	// workload synthesis.
	hi, _ := bits.Mul64(s.Uint64(), n)
	return hi
}

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uintn(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// ZipfParams are the immutable constants of a Zipf distribution over
// [0, n) with skew theta. They cost one zeta sum (up to 2^16 Pow calls)
// to build, so a workload builds them once and every generator it creates
// shares them; they are read-only after construction and safe to share
// across goroutines.
type ZipfParams struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	// one is 1+0.5^theta, the draw threshold that maps to item 1.
	one float64
}

// NewZipfParams computes the constants of a Zipf distribution over [0, n)
// with skew theta (0 < theta < 1; larger is more skewed).
func NewZipfParams(n uint64, theta float64) *ZipfParams {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: NewZipf theta must be in (0,1)")
	}
	p := &ZipfParams{n: n, theta: theta}
	p.zetan = zeta(n, theta)
	p.alpha = 1.0 / (1.0 - theta)
	p.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/p.zetan)
	p.one = 1.0 + powF(0.5, theta)
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent
// theta in (0, 1). It implements the classic Knuth/Gray approximate
// inverse-CDF used by YCSB-style generators: item 0 is the hottest.
type Zipf struct {
	src *Source
	p   *ZipfParams
}

// NewZipf constructs a Zipf generator over [0, n) with skew theta
// (0 < theta < 1; larger is more skewed).
func NewZipf(src *Source, n uint64, theta float64) *Zipf {
	return NewZipfParams(n, theta).New(src)
}

// New returns a generator drawing from these parameters with src.
func (p *ZipfParams) New(src *Source) *Zipf { return &Zipf{src: src, p: p} }

// Params returns the generator's (possibly shared) parameters.
func (z *Zipf) Params() *ZipfParams { return z.p }

func zeta(n uint64, theta float64) float64 {
	// For large n this loop would be slow; cap the exact sum and
	// approximate the tail with the integral of x^-theta.
	const exact = 1 << 16
	sum := 0.0
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(1); i <= m; i++ {
		sum += powF(1.0/float64(i), theta)
	}
	if n > m {
		// ∫_m^n x^-theta dx = (n^(1-theta) - m^(1-theta)) / (1-theta)
		sum += (powF(float64(n), 1-theta) - powF(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

func powF(base, exp float64) float64 { return math.Pow(base, exp) }

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	p := z.p
	u := z.src.Float64()
	uz := u * p.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < p.one {
		return 1
	}
	v := uint64(float64(p.n) * powF(p.eta*u-p.eta+1, p.alpha))
	if v >= p.n {
		v = p.n - 1
	}
	return v
}
