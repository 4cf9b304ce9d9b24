package gf

import "math/bits"

// The paper notes (Sec. V-C) that an SQL-only implementation can avoid
// GF(2^64) polynomial arithmetic by choosing a prime p larger than any
// vertex ID and working in GF(p) with ordinary integer arithmetic modulo p.
// This file provides that variant, used by the GF(p) randomisation method
// and by ablation A2.

// PrimeP is 2^64 − 59, the largest prime below 2^64, so that every 64-bit
// vertex ID this repository generates (all < 2^63) is a field element.
const PrimeP uint64 = 18446744073709551557

// reduceP returns a mod PrimeP. Every uint64 is below 2·PrimeP, so one
// conditional subtraction reduces it.
func reduceP(a uint64) uint64 {
	if a >= PrimeP {
		a -= PrimeP
	}
	return a
}

// MulP returns a·b mod PrimeP, using a 128-bit intermediate product. The
// high word is reduced first: bits.Div64 needs it below the divisor, and
// (hi·2^64 + lo) ≡ ((hi mod p)·2^64 + lo) mod p.
func MulP(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(reduceP(hi), lo, PrimeP)
	return rem
}

// AddP returns a+b mod PrimeP for any operands, reduced or not.
func AddP(a, b uint64) uint64 {
	s, carry := bits.Add64(reduceP(a), reduceP(b), 0)
	if carry == 1 || s >= PrimeP {
		s -= PrimeP
	}
	return s
}

// SubP returns a−b mod PrimeP for any operands, reduced or not.
func SubP(a, b uint64) uint64 {
	d, borrow := bits.Sub64(reduceP(a), reduceP(b), 0)
	if borrow == 1 {
		d += PrimeP
	}
	return d
}

// AxBP returns a·x + b mod PrimeP, the GF(p) analogue of AxB, for any
// operands, reduced or not. For a ≢ 0 (mod p) it is a bijection on [0, p).
func AxBP(a, x, b uint64) uint64 { return AddP(MulP(a, x), b) }

// InvP returns the multiplicative inverse of a mod PrimeP via Fermat's
// little theorem (a^(p−2)). It panics for a ≡ 0.
func InvP(a uint64) uint64 {
	a %= PrimeP
	if a == 0 {
		panic("gf: zero has no inverse mod p")
	}
	exp := PrimeP - 2
	result := uint64(1)
	base := a
	for exp > 0 {
		if exp&1 == 1 {
			result = MulP(result, base)
		}
		base = MulP(base, base)
		exp >>= 1
	}
	return result
}
