// Package rng provides small, self-contained, deterministic pseudo-random
// number generators used by the synthetic workload generator and by
// randomized tests.
//
// The package deliberately does not use math/rand: the library promises that
// every experiment regenerates bit-identically from a seed, and the stdlib
// generators do not guarantee stream stability across Go releases. The
// generators here are fully specified by this file.
//
// Two generators are provided:
//
//   - SplitMix64: a 64-bit stateless-style mixer, used for seeding and for
//     hashing seed material into independent streams.
//   - PCG32: a PCG-XSH-RR 64/32 generator, used for all workload draws.
package rng

import "math/bits"

// SplitMix64 advances a 64-bit state and returns the next output of the
// SplitMix64 sequence. It is primarily used to derive independent seeds.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one SplitMix64 round. It is a convenient way to
// derive a well-distributed value from structured input (for example a PC).
func Mix64(x uint64) uint64 {
	s := x
	return SplitMix64(&s)
}

// PCG32 is a PCG-XSH-RR 64/32 pseudo-random generator (O'Neill, 2014).
// The zero value is NOT ready for use; construct with New or Seed.
type PCG32 struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a PCG32 seeded from seed on stream stream. Distinct streams
// yield statistically independent sequences even for equal seeds.
func New(seed, stream uint64) *PCG32 {
	p := &PCG32{}
	p.Seed(seed, stream)
	return p
}

// Seed reinitializes p in place to the state New(seed, stream) returns,
// for generators that embed a PCG32 by value and reseed it on reset
// without allocating.
func (p *PCG32) Seed(seed, stream uint64) {
	p.inc = (stream << 1) | 1
	p.state = 0
	p.Uint32()
	p.state += seed
	p.Uint32()
}

// Uint32 returns the next 32 random bits.
func (p *PCG32) Uint32() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns the next 64 random bits.
func (p *PCG32) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method, which is exact.
func (p *PCG32) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := p.Uint32()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (p *PCG32) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability prob (clamped to [0, 1]).
func (p *PCG32) Bool(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// Geometric returns a draw from a geometric distribution with mean roughly
// mean (support {1, 2, ...}). It is used for loop trip counts and run
// lengths. mean must be >= 1.
func (p *PCG32) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// P(stop) per step so that E[X] = mean for X in {1,2,...}.
	stop := 1 / mean
	n := 1
	for !p.Bool(stop) {
		n++
		if n > 1<<20 { // safety bound; never hit with sane means
			break
		}
	}
	return n
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (p *PCG32) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
