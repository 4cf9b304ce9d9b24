// Package gf implements arithmetic over the finite field GF(2^64), the
// field the paper's finite-fields randomisation method operates in.
//
// Elements of GF(2^64) are represented as uint64 values whose bits are the
// coefficients of a binary polynomial of degree < 64. Addition is XOR;
// multiplication is carry-less polynomial multiplication reduced modulo the
// irreducible polynomial
//
//	x^64 + x^4 + x^3 + x + 1
//
// which is the same modulus used by the paper's C user-defined function
// axplusb (Fig. 7, constant IRRPOLY = 0x1b).
//
// The central operation is AxB(a, x, b) = a·x + b, which for a ≠ 0 is a
// bijection on GF(2^64) and therefore induces a pseudo-random relabelling of
// 64-bit vertex IDs. Inv computes multiplicative inverses, so the bijection
// can be explicitly inverted (x = a⁻¹·(y + b)).
package gf

import "math/bits"

// IrrPoly is the low part of the irreducible reduction polynomial
// x^64 + x^4 + x^3 + x + 1: the term x^64 is implicit, the remaining
// coefficients are 0x1b = x^4 + x^3 + x + 1.
const IrrPoly uint64 = 0x1b

// Add returns a + b in GF(2^64). Addition of binary polynomials is XOR;
// every element is its own additive inverse, so Add is also subtraction.
func Add(a, b uint64) uint64 { return a ^ b }

// Mul returns a · b in GF(2^64), using the shift-and-add schoolbook method
// of the paper's Fig. 7 C code: for each set bit of x accumulate a, doubling
// a (shift, reduce) at every step.
func Mul(a, x uint64) uint64 {
	var r uint64
	for x != 0 {
		if x&1 != 0 {
			r ^= a
		}
		x >>= 1
		if a&(1<<63) != 0 {
			a = a<<1 ^ IrrPoly
		} else {
			a <<= 1
		}
	}
	return r
}

// mulTables holds 8 tables of 256 entries each for table-driven
// multiplication: mulTables[i][v] = mulBase · (v · x^(8i)) for the base
// element the tables were built for. See NewMultiplier.
type mulTables [8][256]uint64

// Multiplier precomputes multiplication by a fixed element of GF(2^64),
// turning the 64-iteration bit loop of Mul into 8 table lookups. The engine
// uses one Multiplier per contraction round, since every round multiplies
// millions of vertex IDs by the same random A.
type Multiplier struct {
	tab mulTables
	a   uint64
}

// NewMultiplier returns a Multiplier computing a·x for arbitrary x.
func NewMultiplier(a uint64) *Multiplier {
	m := new(Multiplier)
	m.Reset(a)
	return m
}

// Reset rebuilds m in place to multiply by a, so a cache can recycle a
// table it evicts instead of allocating another. Multiplication
// distributes over XOR, so tab[i][v] is built from the entry for v with
// its lowest set bit cleared plus that bit's power: 255 XORs per table
// instead of a bit test per bit of every entry. tab[i][0] is zero for
// every a and is never written.
func (m *Multiplier) Reset(a uint64) {
	m.a = a
	p := a // a · x^(8i+k) as k runs through byte i
	for i := 0; i < 8; i++ {
		var powers [8]uint64
		for k := range powers {
			powers[k] = p
			if p&(1<<63) != 0 {
				p = p<<1 ^ IrrPoly
			} else {
				p <<= 1
			}
		}
		t := &m.tab[i]
		for v := 1; v < 256; v++ {
			t[v] = t[v&(v-1)] ^ powers[bits.TrailingZeros8(uint8(v))]
		}
	}
}

// A returns the fixed multiplicand this Multiplier was built for.
func (m *Multiplier) A() uint64 { return m.a }

// Mul returns a·x using the precomputed tables.
func (m *Multiplier) Mul(x uint64) uint64 {
	return m.tab[0][x&0xff] ^
		m.tab[1][(x>>8)&0xff] ^
		m.tab[2][(x>>16)&0xff] ^
		m.tab[3][(x>>24)&0xff] ^
		m.tab[4][(x>>32)&0xff] ^
		m.tab[5][(x>>40)&0xff] ^
		m.tab[6][(x>>48)&0xff] ^
		m.tab[7][(x>>56)&0xff]
}

// AxB returns a·x + b in GF(2^64): the paper's axplusb user-defined
// function. For a ≠ 0 this is a bijection on uint64.
func AxB(a, x, b uint64) uint64 { return Mul(a, x) ^ b }

// AxB returns a·x + b using the precomputed tables.
func (m *Multiplier) AxB(x, b uint64) uint64 { return m.Mul(x) ^ b }

// deg returns the degree of the polynomial p, or -1 for p = 0.
func deg(p uint64) int {
	if p == 0 {
		return -1
	}
	d := 0
	for p > 1 {
		p >>= 1
		d++
	}
	return d
}

// Inv returns the multiplicative inverse of a in GF(2^64). It panics if
// a = 0, which has no inverse. The implementation is the extended Euclidean
// algorithm on binary polynomials, run against the 65-bit modulus; the first
// division step is unrolled because the modulus does not fit in a uint64.
func Inv(a uint64) uint64 {
	if a == 0 {
		panic("gf: zero has no multiplicative inverse")
	}
	if a == 1 {
		return 1
	}
	// Maintain r0 = modulus, r1 = a with Bézout coefficients t0, t1 such
	// that ti·a ≡ ri (mod modulus). The modulus is x^64 + IrrPoly; its
	// remainder mod a is computed by the first unrolled step.
	//
	// First step: divide x^64 + IrrPoly by a.
	// quotient q, remainder rem of (x^64 + IrrPoly) / a.
	da := deg(a)
	// First subtract a·x^(64-da): a has degree da, so a<<(64-da) puts its
	// leading bit at position 64, which the uint64 shift discards — exactly
	// the cancellation of the modulus' implicit x^64 term.
	shift := uint(64 - da)
	rem := IrrPoly ^ (a << shift)
	q := uint64(1) << shift
	// Continue ordinary polynomial division of rem by a.
	for deg(rem) >= da {
		s := deg(rem) - da
		rem ^= a << s
		q |= 1 << s
	}
	// Now modulus = q·a + rem. Invariants: t0·a ≡ modulus-part, standard
	// extended Euclid from here on with r0 = a, r1 = rem,
	// t0 = 1, t1 = q (since rem = modulus + q·a ≡ q·a (mod modulus),
	// as addition and subtraction coincide).
	r0, r1 := a, rem
	t0, t1 := uint64(1), q
	for r1 != 0 {
		// Divide r0 by r1: r0 = q2·r1 + r2.
		q2 := uint64(0)
		r2 := r0
		d1 := deg(r1)
		for deg(r2) >= d1 {
			s := deg(r2) - d1
			r2 ^= r1 << s
			q2 |= 1 << s
		}
		t2 := t0 ^ polyMulMod(q2, t1)
		r0, r1 = r1, r2
		t0, t1 = t1, t2
	}
	if r0 != 1 {
		// Cannot happen: the modulus is irreducible, so gcd(a, mod) = 1.
		panic("gf: modulus not irreducible")
	}
	return t0
}

// polyMulMod returns a·b reduced modulo the field polynomial. It is Mul;
// kept as a distinct name inside Inv for clarity of the Euclid derivation.
func polyMulMod(a, b uint64) uint64 { return Mul(a, b) }

// Affine is a fixed pseudo-random bijection h(x) = A·x + B on GF(2^64),
// with its inverse available. One Affine per contraction round implements
// the finite fields randomisation method.
type Affine struct {
	m *Multiplier
	b uint64
}

// NewAffine returns the bijection h(x) = a·x + b. It panics if a = 0
// (a constant map is not a bijection).
func NewAffine(a, b uint64) *Affine {
	if a == 0 {
		panic("gf: affine map requires a != 0")
	}
	return &Affine{m: NewMultiplier(a), b: b}
}

// Apply returns h(x) = A·x + B.
func (h *Affine) Apply(x uint64) uint64 { return h.m.AxB(x, h.b) }

// A returns the multiplicative coefficient of the map.
func (h *Affine) A() uint64 { return h.m.A() }

// B returns the additive coefficient of the map.
func (h *Affine) B() uint64 { return h.b }

// Inverse returns the inverse bijection h⁻¹(y) = A⁻¹·(y + B).
func (h *Affine) Inverse() *Affine {
	ainv := Inv(h.m.A())
	return NewAffine(ainv, Mul(ainv, h.b))
}

// Compose returns the map x ↦ h(g(x)) = (A_h·A_g)·x + (A_h·B_g + B_h),
// which is again affine. The Fig. 4 algorithm composes the per-round maps
// back to front using exactly this identity.
func (h *Affine) Compose(g *Affine) *Affine {
	return NewAffine(Mul(h.A(), g.A()), AxB(h.A(), g.B(), h.b))
}
