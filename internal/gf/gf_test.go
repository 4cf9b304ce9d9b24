package gf

import (
	"math/big"
	"testing"
	"testing/quick"

	"dbcc/internal/xrand"
)

func TestAddIsXor(t *testing.T) {
	if Add(0b1010, 0b0110) != 0b1100 {
		t.Fatal("Add is not xor")
	}
	if Add(42, 42) != 0 {
		t.Fatal("element not its own additive inverse")
	}
}

func TestMulIdentity(t *testing.T) {
	for _, x := range []uint64{0, 1, 2, 0x1b, 1 << 63, ^uint64(0)} {
		if Mul(1, x) != x {
			t.Errorf("1·%#x = %#x, want %#x", x, Mul(1, x), x)
		}
		if Mul(x, 1) != x {
			t.Errorf("%#x·1 = %#x, want %#x", x, Mul(x, 1), x)
		}
		if Mul(0, x) != 0 || Mul(x, 0) != 0 {
			t.Errorf("0·%#x != 0", x)
		}
	}
}

func TestMulByXReduces(t *testing.T) {
	// x^63 · x = x^64 ≡ IrrPoly.
	if got := Mul(1<<63, 2); got != IrrPoly {
		t.Fatalf("x^63·x = %#x, want %#x", got, IrrPoly)
	}
}

// TestMulMatchesPaperC checks Mul against an independent transliteration of
// the paper's Fig. 7 C routine (roles of a and x swapped, which must not
// matter in a commutative ring).
func TestMulMatchesPaperC(t *testing.T) {
	ref := func(a, x uint64) uint64 {
		var r uint64
		for x != 0 {
			if x&1 != 0 {
				r ^= a
			}
			x >>= 1
			if a&(1<<63) != 0 {
				a = a<<1 ^ 0x1b
			} else {
				a <<= 1
			}
		}
		return r
	}
	err := quick.Check(func(a, x uint64) bool {
		return Mul(a, x) == ref(x, a) // commuted arguments
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(a, b uint64) bool { return Mul(a, b) == Mul(b, a) }, cfg); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	if err := quick.Check(func(a, b, c uint64) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	if err := quick.Check(func(a, b, c uint64) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestInv(t *testing.T) {
	cases := []uint64{1, 2, 3, 0x1b, 1 << 63, ^uint64(0), 0xdeadbeefcafebabe}
	for _, a := range cases {
		inv := Inv(a)
		if got := Mul(a, inv); got != 1 {
			t.Errorf("a·Inv(a) = %#x for a=%#x, want 1", got, a)
		}
	}
	err := quick.Check(func(a uint64) bool {
		if a == 0 {
			return true
		}
		return Mul(a, Inv(a)) == 1
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestAxBBijective(t *testing.T) {
	// For a ≠ 0 the map x ↦ a·x+b must be injective; verify by explicit
	// inversion on random points.
	err := quick.Check(func(a, x, b uint64) bool {
		if a == 0 {
			a = 1
		}
		y := AxB(a, x, b)
		back := Mul(Inv(a), Add(y, b))
		return back == x
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiplierMatchesMul(t *testing.T) {
	for _, a := range []uint64{0, 1, 2, 0x1b, 1 << 63, 0x0123456789abcdef} {
		m := NewMultiplier(a)
		if m.A() != a {
			t.Fatalf("A() = %#x, want %#x", m.A(), a)
		}
		err := quick.Check(func(x uint64) bool { return m.Mul(x) == Mul(a, x) },
			&quick.Config{MaxCount: 200})
		if err != nil {
			t.Fatalf("a=%#x: %v", a, err)
		}
	}
}

// TestMultiplierTableMatchesMul checks every entry of the incrementally
// built tables against the schoolbook product: tab[i][v] = a · (v << 8i).
func TestMultiplierTableMatchesMul(t *testing.T) {
	rng := xrand.New(64)
	as := []uint64{0, 1, 1 << 63, ^uint64(0)}
	for len(as) < 12 {
		as = append(as, rng.Uint64())
	}
	for _, a := range as {
		m := NewMultiplier(a)
		for i := range m.tab {
			for v := range m.tab[i] {
				if got, want := m.tab[i][v], Mul(a, uint64(v)<<(8*i)); got != want {
					t.Fatalf("a=%#x: tab[%d][%#x] = %#x, want %#x", a, i, v, got, want)
				}
			}
		}
	}
}

// TestMultiplierReset rebuilds one Multiplier through a sequence of
// multiplicands and pins that each rebuild equals a fresh NewMultiplier,
// table for table.
func TestMultiplierReset(t *testing.T) {
	rng := xrand.New(65)
	m := NewMultiplier(^uint64(0))
	for _, a := range []uint64{0, 1, rng.Uint64(), 1 << 63, rng.Uint64()} {
		m.Reset(a)
		if fresh := NewMultiplier(a); *m != *fresh {
			t.Fatalf("Reset(%#x) differs from NewMultiplier(%#x)", a, a)
		}
	}
}

func TestAffine(t *testing.T) {
	h := NewAffine(0x9e3779b97f4a7c15, 0x1234)
	inv := h.Inverse()
	for _, x := range []uint64{0, 1, 42, ^uint64(0)} {
		if got := inv.Apply(h.Apply(x)); got != x {
			t.Errorf("inverse(h(%d)) = %d", x, got)
		}
	}
	g := NewAffine(7, 9)
	comp := h.Compose(g)
	err := quick.Check(func(x uint64) bool {
		return comp.Apply(x) == h.Apply(g.Apply(x))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAffineZeroAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAffine(0, b) did not panic")
		}
	}()
	NewAffine(0, 5)
}

func TestPrimeFieldBasics(t *testing.T) {
	p := PrimeP
	if AddP(p-1, 1) != 0 {
		t.Fatal("AddP wraparound")
	}
	if AddP(p-1, p-1) != p-2 {
		t.Fatal("AddP with carry")
	}
	if MulP(1, 12345) != 12345 {
		t.Fatal("MulP identity")
	}
	if MulP(p-1, p-1) != 1 {
		// (−1)·(−1) = 1
		t.Fatal("MulP (p-1)^2 != 1")
	}
	if SubP(3, 5) != p-2 {
		t.Fatal("SubP wraparound")
	}
}

// TestPrimeFieldMatchesBigInt checks MulP, AddP, SubP and AxBP against
// math/big on every combination of edge values — unreduced operands up to
// 2^64−1 included — and on random triples over the whole uint64 range.
func TestPrimeFieldMatchesBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(PrimeP)
	mod := func(z *big.Int) uint64 { return z.Mod(z, p).Uint64() }
	bi := func(v uint64) *big.Int { return new(big.Int).SetUint64(v) }
	check := func(a, x, b uint64) {
		t.Helper()
		if got, want := MulP(a, x), mod(new(big.Int).Mul(bi(a), bi(x))); got != want {
			t.Fatalf("MulP(%d, %d) = %d, want %d", a, x, got, want)
		}
		if got, want := AddP(a, b), mod(new(big.Int).Add(bi(a), bi(b))); got != want {
			t.Fatalf("AddP(%d, %d) = %d, want %d", a, b, got, want)
		}
		if got, want := SubP(a, b), mod(new(big.Int).Sub(bi(a), bi(b))); got != want {
			t.Fatalf("SubP(%d, %d) = %d, want %d", a, b, got, want)
		}
		axb := new(big.Int).Mul(bi(a), bi(x))
		if got, want := AxBP(a, x, b), mod(axb.Add(axb, bi(b))); got != want {
			t.Fatalf("AxBP(%d, %d, %d) = %d, want %d", a, x, b, got, want)
		}
	}
	edges := []uint64{0, 1, 2, 1 << 63, PrimeP - 1, PrimeP, PrimeP + 1, ^uint64(0) - 1, ^uint64(0)}
	for _, a := range edges {
		for _, x := range edges {
			for _, b := range edges {
				check(a, x, b)
			}
		}
	}
	if got := AddP(^uint64(0), ^uint64(0)); got != 116 {
		t.Fatalf("AddP(2^64-1, 2^64-1) = %d, want 116", got)
	}
	rng := xrand.New(59)
	for i := 0; i < 5000; i++ {
		check(rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
}

func TestInvP(t *testing.T) {
	err := quick.Check(func(a uint64) bool {
		a %= PrimeP
		if a == 0 {
			return true
		}
		return MulP(a, InvP(a)) == 1
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAxBPBijective(t *testing.T) {
	err := quick.Check(func(a, x, b uint64) bool {
		a %= PrimeP
		x %= PrimeP
		b %= PrimeP
		if a == 0 {
			a = 1
		}
		y := AxBP(a, x, b)
		// x = a⁻¹·(y − b).
		back := MulP(InvP(a), SubP(y, b))
		return back == x
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Mul(0x9e3779b97f4a7c15, uint64(i))
	}
	sink = acc
}

func BenchmarkMultiplier(b *testing.B) {
	m := NewMultiplier(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= m.Mul(uint64(i))
	}
	sink = acc
}

// BenchmarkNewMultiplier measures building the tables, which every
// finite-fields contraction round does once.
func BenchmarkNewMultiplier(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= NewMultiplier(0x9e3779b97f4a7c15 + uint64(i)).tab[7][255]
	}
	sink = acc
}

var sink uint64
