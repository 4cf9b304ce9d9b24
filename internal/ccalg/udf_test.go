package ccalg

import (
	"testing"

	"dbcc/internal/blowfish"
	"dbcc/internal/engine"
	"dbcc/internal/gf"
	"dbcc/internal/sql"
	"dbcc/internal/xrand"
)

// TestMemoKeepsHotKey interleaves one hot key with far more cold keys than
// the memo holds — many concurrent runs' round keys passing through — and
// pins that the hot key's value is built exactly once, while the memo stays
// bounded.
func TestMemoKeepsHotKey(t *testing.T) {
	builds := map[uint64]int{}
	m := newMemo(func(key uint64) uint64 {
		builds[key]++
		return key * 3
	})
	const hot = 1 << 40
	for cold := uint64(0); cold < 5*memoCap; cold++ {
		if got := m.get(hot); got != hot*3 {
			t.Fatalf("hot key value %d, want %d", got, uint64(hot*3))
		}
		if got := m.get(cold); got != cold*3 {
			t.Fatalf("cold key %d value %d, want %d", cold, got, cold*3)
		}
	}
	if builds[hot] != 1 {
		t.Fatalf("hot key built %d times among %d cold keys, want once", builds[hot], 5*memoCap)
	}
	if len(m.entries) > memoCap {
		t.Fatalf("memo holds %d entries, cap %d", len(m.entries), memoCap)
	}
}

// TestMemoEvictsLeastRecentlyUsed fills the memo, touches every key but
// one, and pins that a new key evicts exactly that one.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo(func(key uint64) uint64 { return key })
	const cold = 5
	for k := uint64(0); k < memoCap; k++ {
		m.get(k)
	}
	for k := uint64(0); k < memoCap; k++ {
		if k != cold {
			m.get(k)
		}
	}
	m.get(memoCap)
	for k := uint64(0); k <= memoCap; k++ {
		if _, held := m.entries[k]; held != (k != cold) {
			t.Fatalf("key %d held=%v after a miss evicted the least recently used key %d", k, held, cold)
		}
	}
	if len(m.entries) != memoCap {
		t.Fatalf("memo holds %d entries, cap %d", len(m.entries), memoCap)
	}
}

// TestBuiltinUDFsColumnMatchesScalar differential-tests the four built-in
// functions over every mix of argument shapes — literal, NULL literal,
// column with NULLs — three ways: evaluated a chunk at a time through their
// column kernels, evaluated a row at a time through the engine's scalar
// loop (the same function re-registered in scalar form), and computed from
// the defining formula of each function.
func TestBuiltinUDFsColumnMatchesScalar(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 4})
	RegisterUDFs(c)

	funcs := []struct {
		name  string
		arity int
		want  func(args []int64) int64
	}{
		{"axplusb", 3, func(a []int64) int64 { return int64(gf.Mul(uint64(a[0]), uint64(a[1])) ^ uint64(a[2])) }},
		{"axbp", 3, func(a []int64) int64 { return int64(gf.AxBP(uint64(a[0]), uint64(a[1]), uint64(a[2]))) }},
		{"enc", 2, func(a []int64) int64 {
			return int64(blowfish.NewFromUint64(uint64(a[0])).Encrypt64(uint64(a[1])) >> 1)
		}},
		{"hrand", 2, func(a []int64) int64 {
			return int64(xrand.Mix64(uint64(a[0])^xrand.Mix64(uint64(a[1]))) >> 1)
		}},
	}
	for _, f := range funcs {
		fn, ok := c.UDF(f.name)
		if !ok {
			t.Fatalf("%s is not registered", f.name)
		}
		c.RegisterUDF(f.name+"_scalar", fn)
	}

	// Three columns with NULLs; few distinct values in the first, so a
	// column-valued coefficient or key changes from row to row and repeats.
	rng := xrand.New(131)
	rows := make([]engine.Row, 500)
	for i := range rows {
		row := engine.Row{engine.I(int64(rng.Uint64n(3)) + 1), engine.I(int64(rng.Uint64())), engine.I(int64(rng.Uint64()))}
		for col := range row {
			if rng.Uint64n(6) == 0 {
				row[col] = engine.NullDatum
			}
		}
		rows[i] = row
	}
	if _, err := c.CreateTable("t", engine.Schema{"a", "b", "c"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}

	// shapes[k] builds argument k as a literal, a NULL literal or column k.
	shapes := []struct {
		name string
		arg  func(k int) engine.Expr
	}{
		{"const", func(k int) engine.Expr { return engine.Const(int64(0x9e3779b97f4a7c15 * uint64(k+1))) }},
		{"null", func(int) engine.Expr { return engine.Null }},
		{"col", func(k int) engine.Expr { return engine.Col(k) }},
	}
	for _, f := range funcs {
		n := f.arity
		mixes := 1
		for i := 0; i < n; i++ {
			mixes *= len(shapes)
		}
		for mix := 0; mix < mixes; mix++ {
			args := make([]engine.Expr, n)
			name := f.name
			for k, m := 0, mix; k < n; k, m = k+1, m/len(shapes) {
				args[k] = shapes[m%len(shapes)].arg(k)
				name += " " + shapes[m%len(shapes)].name
			}
			col, err := c.CallUDF(f.name, args...)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := c.CallUDF(f.name+"_scalar", args...)
			if err != nil {
				t.Fatal(err)
			}
			// The pass-through columns make the result rows self-describing,
			// whatever order the segments return them in.
			_, got, err := c.Query(engine.Project(engine.Scan("t"),
				engine.ProjCol{Expr: engine.Col(0), Name: "a"},
				engine.ProjCol{Expr: engine.Col(1), Name: "b"},
				engine.ProjCol{Expr: engine.Col(2), Name: "c"},
				engine.ProjCol{Expr: col, Name: "col"},
				engine.ProjCol{Expr: scalar, Name: "scalar"}))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(rows) {
				t.Fatalf("%s: %d result rows, want %d", name, len(got), len(rows))
			}
			for _, r := range got {
				want := engine.NullDatum
				vals := make([]int64, n)
				null := false
				for k, a := range args {
					d := r[k] // a column argument
					if c, ok := a.(engine.ConstExpr); ok {
						d = c.Val
					}
					null = null || d.Null
					vals[k] = d.Int
				}
				if !null {
					want = engine.I(f.want(vals))
				}
				if r[3] != want || r[4] != want {
					t.Fatalf("%s on %v: column form %v, scalar form %v, formula %v", name, r[:3], r[3], r[4], want)
				}
			}
		}
	}
}

// TestComposeArithmeticMatchesUDFs pins the coordinator's affine
// arithmetic, rcAxB, which composes Fast RC's coefficients, against the
// registered axplusb and axbp functions evaluated by a SQL select, over
// random triples plus the identity coefficients (a = 1, b = 0) and
// high-bit values. The composition's a is always a GF(p) element (a
// previous axbp result), but SQL can pass axbp any value, so the a values
// also reach p, p+1 and 2^64−1, where every operand is unreduced.
func TestComposeArithmeticMatchesUDFs(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 4})
	defer c.Close()
	RegisterUDFs(c)
	const top = -1 << 63
	prime := gf.PrimeP
	as := []int64{1, 2, 3, top, top + 1, 1<<63 - 1, int64(prime - 1), int64(prime), int64(prime + 1), -1}
	xs := append([]int64{0, -1, int64(prime)}, as...)
	rng := xrand.New(2020)
	var rows []engine.Row
	for _, a := range as {
		for _, x := range xs {
			for _, b := range xs {
				rows = append(rows, engine.Row{engine.I(a), engine.I(x), engine.I(b)})
			}
		}
	}
	for len(rows) < 1200 {
		r := engine.Row{engine.I(int64(rng.NonZeroUint64())), engine.I(int64(rng.Uint64())), engine.I(int64(rng.Uint64()))}
		if len(rows)%4 == 0 {
			r[0], r[2] = engine.I(1), engine.I(0) // the composition's starting coefficients
		}
		rows = append(rows, r)
	}
	if _, err := c.CreateTable("t", engine.Schema{"a", "x", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	s := sql.NewSession(c)
	// 2^64−1 ≡ 58 (mod p), so axbp(−1, −1, −1) = 58·58 + 58.
	if _, got, err := s.Query("select axbp(-1, -1, -1) as r"); err != nil || len(got) != 1 || got[0][0] != engine.I(3422) {
		t.Fatalf("select axbp(-1, -1, -1) = %v, %v; want 3422", got, err)
	}
	for _, m := range []Method{FiniteFields, GFPrime} {
		_, got, err := s.Query("select a, x, b, " + rcFn(m) + "(a, x, b) as r from t")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%s: %d rows, want %d", m, len(got), len(rows))
		}
		for _, r := range got {
			a, x, b := r[0].Int, r[1].Int, r[2].Int
			if want := rcAxB(m, a, x, b); r[3].Null || r[3].Int != want {
				t.Fatalf("%s(%d, %d, %d): SQL %v, coordinator %d", rcFn(m), a, x, b, r[3], want)
			}
		}
	}
}

var sinkInt64 int64

// BenchmarkKernelUDF measures what calling a function once per chunk buys
// over once per row, on the shape every Randomised Contraction round
// evaluates: axplusb(A, v, B) with the round's coefficients constant and v
// a 65 536-row column. "column" is one call of the registered kernel;
// "scalar" is the function's scalar form called row by row, as the engine
// calls a function that has no column kernel. CI gates the ratio (see
// internal/bench/testdata/microbench_baseline.json).
func BenchmarkKernelUDF(b *testing.B) {
	const n = 1 << 16
	c := engine.NewCluster(engine.Options{})
	RegisterUDFs(c)
	call, err := c.CallUDF("axplusb")
	if err != nil {
		b.Fatal(err)
	}
	axplusb := call.(engine.UDFExpr)
	rng := xrand.New(137)
	A, B := int64(rng.NonZeroUint64()), int64(rng.Uint64())
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Uint64())
	}
	out := make([]int64, n)

	b.Run("column/n=65536", func(b *testing.B) {
		b.ReportAllocs()
		args := []engine.UDFArg{{Const: A}, {Col: v}, {Const: B}}
		for i := 0; i < b.N; i++ {
			axplusb.Col(out, args)
			sinkInt64 = out[n-1]
		}
	})
	b.Run("scalar/n=65536", func(b *testing.B) {
		b.ReportAllocs()
		args := []engine.Datum{engine.I(A), {}, engine.I(B)}
		for i := 0; i < b.N; i++ {
			for r, x := range v {
				args[1] = engine.I(x)
				out[r] = axplusb.Fn(args).Int
			}
			sinkInt64 = out[n-1]
		}
	})
}
