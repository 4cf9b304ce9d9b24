package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbcc/internal/xrand"
)

// opaqueExpr is an Expr implementation the engine does not know.
type opaqueExpr struct{}

func (opaqueExpr) String() string { return "opaque" }

// TestEvalVecSelMatchesGather pins the selected evaluator's contract for
// every Expr kind, NULLs included: evalVecSel(e, ch, sel) equals
// evalVec(e, gather(ch, sel)) and the reference evaluator evalRow on each
// selected row. It also pins the cost model that makes the scan pipeline worthwhile:
// the number of allocations of a selected evaluation depends on the
// expression, not on how many rows are selected — no per-row Row rebuild,
// no per-row argument slice.
func TestEvalVecSelMatchesGather(t *testing.T) {
	c := NewCluster(Options{})
	// A scalar-only function that is not strict: NULL in, 0 out.
	c.RegisterUDF("sadd", func(args []Datum) Datum {
		var sum int64
		for _, a := range args {
			if !a.Null {
				sum += a.Int
			}
		}
		return I(sum)
	})
	c.RegisterColumnUDF("cadd", func(out []int64, args []UDFArg) {
		for i := range out {
			out[i] = args[0].At(i) + args[1].At(i) + 1
		}
	})
	call := func(name string, args ...Expr) Expr {
		e, err := c.CallUDF(name, args...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	const n = 6000
	rng := xrand.New(127)
	rows := make([]Row, n)
	for i := range rows {
		row := make(Row, 3)
		for col := range row {
			// Every column has a NULL within the first rows and row 5 is
			// NULL throughout, so the small and the large selection below
			// allocate the same bitmaps.
			if i%4 == col || i == 5 || rng.Uint64n(8) == 0 {
				row[col] = NullDatum
			} else {
				row[col] = I(int64(rng.Uint64n(9)) - 4)
			}
		}
		rows[i] = row
	}
	ch := rowsToChunk(rows, 3)

	exprs := []struct {
		name string
		e    Expr
	}{
		{"column", Col(1)},
		{"constant", Const(42)},
		{"zero constant", Const(0)},
		{"NULL constant", Null},
		{"is null", IsNull(Col(0))},
		{"is not null", IsNotNull(Bin(OpAdd, Col(0), Col(1)))},
		{"coalesce", Coalesce(Col(0), Col(1), Const(-1))},
		{"coalesce to NULL", Coalesce(Col(0), Col(2))},
		{"least", Least(Col(0), Col(1), Col(2))},
		{"least with constant", Least(Col(0), Const(1))},
		{"scalar udf", call("sadd", Col(0), Col(1))},
		{"scalar udf of constants", call("sadd", Const(3), Null)},
		{"column udf", call("cadd", Col(0), Col(1))},
		{"column udf, constant argument", call("cadd", Const(5), Col(2))},
		{"column udf, all constants", call("cadd", Const(5), Const(6))},
		{"column udf, NULL constant", call("cadd", Col(0), Null)},
		{"column udf over expressions", call("cadd", Bin(OpSub, Col(0), Col(1)), Least(Col(1), Col(2)))},
		{"nested", Bin(OpOr, IsNull(Col(2)), Bin(OpLt, call("cadd", Col(0), Const(1)), Coalesce(Col(1), Const(0))))},
	}
	for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAdd, OpSub, OpAnd, OpOr} {
		exprs = append(exprs, struct {
			name string
			e    Expr
		}{"binary " + binOpNames[op], Bin(op, Col(0), Col(1))})
	}

	var third, scattered []int32
	for r := 0; r < n; r++ {
		if r%3 == 0 {
			third = append(third, int32(r))
		}
		if rng.Uint64n(5) == 0 {
			scattered = append(scattered, int32(r))
		}
	}
	prefix := func(k int) []int32 {
		sel := make([]int32, k)
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel
	}
	sels := map[string][]int32{
		"nil":       nil,
		"empty":     {},
		"one row":   {n - 1},
		"third":     third,
		"scattered": scattered,
		"all":       prefix(n),
	}
	small, large := prefix(16), prefix(4096)

	for _, x := range exprs {
		for selName, sel := range sels {
			got, err := evalVecSel(x.e, ch, sel)
			if err != nil {
				t.Fatalf("%s over %s: %v", x.name, selName, err)
			}
			want, err := evalVec(x.e, gatherChunk(nil, ch, sel))
			if err != nil {
				t.Fatalf("%s over gathered %s: %v", x.name, selName, err)
			}
			if len(got.vals) != len(sel) || len(want.vals) != len(sel) {
				t.Fatalf("%s over %s: %d selected / %d gathered values, want %d",
					x.name, selName, len(got.vals), len(want.vals), len(sel))
			}
			for i, r := range sel {
				oracle := evalRow(x.e, rows[r])
				if got.datum(i) != oracle || want.datum(i) != oracle {
					t.Fatalf("%s over %s, row %d: selected %v, gathered %v, row-at-a-time %v",
						x.name, selName, r, got.datum(i), want.datum(i), oracle)
				}
			}
		}

		allocs := func(sel []int32) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := evalVecSel(x.e, ch, sel); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); b > a || a > 24 {
			t.Errorf("%s: %.0f allocations over 16 rows, %.0f over 4096 — must not grow with the selection", x.name, a, b)
		}
	}
}

// TestSelectCompareMatchesEval holds the one-pass comparison filter to
// the general path it short-cuts — evaluate the predicate, keep the rows
// where it is true — for every comparison operator, every operand shape
// it takes (column against column, column against literal, literal
// against column) and the ones it leaves to evalRows (a NULL literal, two
// literals, arithmetic), over columns with NULLs, with and without a
// selection.
func TestSelectCompareMatchesEval(t *testing.T) {
	rng := xrand.New(61)
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{I(int64(rng.Uint64n(5))), I(int64(rng.Uint64n(5))), I(int64(rng.Uint64n(5)))}
		if rng.Uint64n(6) == 0 {
			rows[i][rng.Uint64n(2)] = NullDatum
		}
	}
	ch := rowsToChunk(rows, 3)
	var sel []int32
	for r := 0; r < len(rows); r += 1 + int(rng.Uint64n(3)) {
		sel = append(sel, int32(r))
	}
	for op := OpEq; op <= OpGe; op++ {
		for _, shape := range []struct {
			l, r Expr
			fast bool
		}{
			{Col(0), Col(1), true}, {Col(0), Col(2), true}, {Col(1), Const(2), true}, {Const(2), Col(0), true},
			{Col(0), Null, false}, {Const(1), Const(2), false}, {Bin(OpAdd, Col(0), Col(1)), Col(2), false},
		} {
			pred := Bin(op, shape.l, shape.r)
			for _, s := range [][]int32{nil, sel} {
				got, ok := selectCompare(pred, ch, s, make([]int32, len(rows)))
				if ok != shape.fast {
					t.Fatalf("%s: one-pass form taken = %v, want %v", pred, ok, shape.fast)
				}
				if !ok {
					continue
				}
				pv, err := evalRows(pred, ch, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				var want []int32
				for i, v := range pv.vals {
					if v != 0 && !pv.null(i) {
						r := int32(i)
						if s != nil {
							r = s[i]
						}
						want = append(want, r)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s (selection %v): kept %v, want %v", pred, s != nil, got, want)
				}
			}
		}
	}
}

// TestEvalUnknownExprFails pins that evalRows knows every expression it
// runs: an Expr type of another package fails its statement with an
// error naming the type, as does a column reference past the input's
// columns, and neither panics.
func TestEvalUnknownExprFails(t *testing.T) {
	ch := rowsToChunk([]Row{{I(1), I(2)}}, 2)
	for _, e := range []Expr{opaqueExpr{}, Bin(OpAdd, Col(0), opaqueExpr{}), Col(2)} {
		if _, err := evalVec(e, ch); err == nil {
			t.Fatalf("%s evaluated", e)
		}
	}
	if _, err := evalVec(opaqueExpr{}, ch); !strings.Contains(err.Error(), "engine.opaqueExpr") {
		t.Fatalf("error %q does not name the type", err)
	}
	c := newTestCluster(t, 2)
	mustCreate(t, c, "t", Schema{"a", "b"}, 0, pairs([2]int64{1, 2}, [2]int64{3, 4}))
	if _, _, err := c.Query(Filter(Scan("t"), opaqueExpr{})); err == nil || !strings.Contains(err.Error(), "opaqueExpr") {
		t.Fatalf("a query filtering on an unknown expression returned %v", err)
	}
	if _, err := c.DeleteRows(context.Background(), Filter(Scan("t"), opaqueExpr{})); err == nil {
		t.Fatal("a DELETE filtering on an unknown expression succeeded")
	}
	if tab, _ := c.Table("t"); tab.Rows() != 2 {
		t.Fatalf("a failed DELETE left %d rows, want 2", tab.Rows())
	}
}

// TestEvalConst evaluates INSERT … VALUES items: literals, NULL,
// arithmetic and functions of literals, over the one row with no
// columns a FROM-less SELECT reads.
func TestEvalConst(t *testing.T) {
	c := newTestCluster(t, 2)
	c.RegisterColumnUDF("twice", func(out []int64, args []UDFArg) {
		for i := range out {
			out[i] = 2 * args[0].At(i)
		}
	})
	twice, err := c.CallUDF("twice", Bin(OpSub, Const(5), Const(8)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		e    Expr
		want Datum
	}{
		{Const(7), I(7)},
		{Null, NullDatum},
		{Bin(OpAdd, Const(2), Const(3)), I(5)},
		{Coalesce(Null, Const(4)), I(4)},
		{twice, I(-6)},
	} {
		got, err := EvalConst(tc.e)
		if err != nil || got != tc.want {
			t.Fatalf("EvalConst(%s) = %v, %v; want %v", tc.e, got, err, tc.want)
		}
	}
	if _, err := EvalConst(Col(0)); err == nil {
		t.Fatal("EvalConst of a column reference succeeded")
	}
}

// evalVec evaluates e over every row of ch into fresh vectors.
func evalVec(e Expr, ch *Chunk) (colVec, error) { return evalRows(e, ch, nil, nil) }

// evalVecSel evaluates e over only the selected rows of ch, producing a
// dense vector of len(sel) values: output row i corresponds to input row
// sel[i], and evalVecSel(e, ch, sel) row i equals evalVec(e, ch) row
// sel[i] exactly (values, NULLs and errors). Unlike evalRows, whose nil
// selection means every row, a nil sel here selects none.
func evalVecSel(e Expr, ch *Chunk, sel []int32) (colVec, error) {
	if sel == nil {
		sel = []int32{}
	}
	return evalRows(e, ch, sel, nil)
}

// TestStoredNullPayloadsReadZero holds arithmetic and comparisons to the
// chunk rule that a NULL's payload reads zero: CREATE TABLE AS SELECT of
// a + b, a - b and every comparison over (5, NULL) and (NULL, 0) stores
// NULL with payload 0 in every column, not the other operand's value or
// the comparison of the payloads.
func TestStoredNullPayloadsReadZero(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "t", Schema{"a", "b"}, NoDistKey, []Row{{I(5), NullDatum}, {NullDatum, I(0)}})
	var cols []ProjCol
	for _, op := range []BinOp{OpAdd, OpSub, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		cols = append(cols, ProjCol{Expr: Bin(op, Col(0), Col(1)), Name: fmt.Sprintf("c%d", op)})
	}
	if _, err := c.CreateTableAs("out", Project(Scan("t"), cols...), NoDistKey); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("out")
	rows := 0
	for _, list := range tab.snapshotParts() {
		for _, ch := range list {
			for c := range ch.cols {
				for r := 0; r < ch.length; r++ {
					if !ch.nulls[c].get(r) {
						t.Fatalf("%s of a row with a NULL operand is not NULL", cols[c].Expr)
					}
					if ch.cols[c][r] != 0 {
						t.Fatalf("%s stored NULL with payload %d", cols[c].Expr, ch.cols[c][r])
					}
				}
			}
			rows += ch.length
		}
	}
	if rows != 2 {
		t.Fatalf("stored %d rows, want 2", rows)
	}
}
