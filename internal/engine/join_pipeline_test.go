package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dbcc/internal/xrand"
)

// Differential tests for the join pipeline: a Project?(Filter*(Join))
// chain runs inside the join's segment task over its match lists, gathers
// only the columns the chain reads and the projection's only for the rows
// the filters keep. The reference is the unfused evaluation: the
// full-width join, then every filter and the projection row at a time
// through Expr.Eval. Rows, their order and their NULLs must be identical,
// on every join path: the in-memory kernel, its blocked form under a
// match-list limit, and the grace (spill) path.

// rowSumExpr is an Expr implementation the engine cannot see into: the
// evaluator rebuilds whole rows for it, so a pipeline that uses it reads
// every column of its join.
type rowSumExpr struct{}

func (rowSumExpr) Eval(row Row) Datum {
	var s int64
	for _, d := range row {
		if !d.Null {
			s += d.Int
		}
	}
	return I(s)
}

func (rowSumExpr) String() string { return "rowsum(*)" }

// pipeUDFs are a column-kernel and a scalar-only function for the test
// pipelines; both compute 3x + y, NULL if an argument is NULL.
func pipeUDFs(args ...Expr) (col, scalar Expr) {
	fn := func(a []Datum) Datum {
		if a[0].Null || a[1].Null {
			return NullDatum
		}
		return I(3*a[0].Int + a[1].Int)
	}
	kernel := func(out []int64, a []UDFArg) {
		for i := range out {
			out[i] = 3*a[0].At(i) + a[1].At(i)
		}
	}
	return UDFExpr{Name: "f3", Fn: fn, Col: kernel, Args: args}, UDFExpr{Name: "g3", Fn: fn, Args: args}
}

// joinPipeCase is one Project?(Filter*) chain over a join of two
// three-column inputs (output columns 0..2 from the left, 3..5 from the
// right; the keys are columns 0 and 3).
type joinPipeCase struct {
	name    string
	filters []Expr // innermost first
	proj    []Expr // nil: no projection
}

func joinPipeCases() []joinPipeCase {
	colUDF, scalarUDF := pipeUDFs(Col(1), Col(5))
	return []joinPipeCase{
		{name: "project only", proj: []Expr{Col(4), Col(0)}},
		{name: "rc contraction shape", filters: []Expr{Bin(OpNe, Col(1), Col(4))}, proj: []Expr{Col(1), Col(4)}},
		{name: "filter only", filters: []Expr{Bin(OpGt, Col(2), Const(1))}},
		{name: "two filters and computed columns",
			filters: []Expr{IsNotNull(Col(5)), Bin(OpLt, Col(1), Col(2))},
			proj: []Expr{Least(Col(1), Col(5)), Coalesce(Col(4), Col(2)), colUDF, scalarUDF,
				Const(7), Null, Col(0), Col(0)}},
		{name: "pad read by projection only",
			proj: []Expr{Col(0), Coalesce(Col(4), Const(-1)), IsNull(Col(3)), Col(5), Bin(OpSub, Col(2), Col(1))}},
		{name: "pad read by filter only", filters: []Expr{IsNull(Col(4))}, proj: []Expr{Col(1), Col(2)}},
		{name: "filter column also projected", filters: []Expr{Bin(OpNe, Col(2), Col(5))},
			proj: []Expr{Col(5), Bin(OpAdd, Col(2), Const(1))}},
		{name: "no column read", filters: []Expr{Bin(OpEq, Const(1), Const(1))}, proj: []Expr{Const(3)}},
		{name: "opaque expression", filters: []Expr{Bin(OpGe, rowSumExpr{}, Const(0))}, proj: []Expr{rowSumExpr{}, Col(3)}},
	}
}

// plan builds the case's plan over join j.
func (pc joinPipeCase) plan(j Plan) Plan {
	p := j
	for _, f := range pc.filters {
		p = Filter(p, f)
	}
	if pc.proj == nil {
		return p
	}
	cols := make([]ProjCol, len(pc.proj))
	for i, e := range pc.proj {
		cols[i] = ProjCol{Expr: e, Name: fmt.Sprintf("c%d", i)}
	}
	return Project(p, cols...)
}

// pipeline is the case as the engine's pipeline.
func (pc joinPipeCase) pipeline() pipeline {
	pl, _ := splitPipeline(pc.plan(JoinPlan{}))
	return pl
}

// reference evaluates the case unfused: every filter, then the
// projection, row at a time over the full-width join rows. kept[i] is
// the rows the i-th filter (innermost first) kept.
func (pc joinPipeCase) reference(joined []Row) (out []Row, kept []int64) {
	kept = make([]int64, len(pc.filters))
	rows := joined
	for i, f := range pc.filters {
		var next []Row
		for _, r := range rows {
			if truthy(f.Eval(r)) {
				next = append(next, r)
			}
		}
		rows, kept[i] = next, int64(len(next))
	}
	if pc.proj == nil {
		return rows, kept
	}
	for _, r := range rows {
		o := make(Row, len(pc.proj))
		for i, e := range pc.proj {
			o[i] = e.Eval(r)
		}
		out = append(out, o)
	}
	return out, kept
}

// TestJoinPipelineKernelMatchesUnfused runs every case through the join
// kernel directly, for both join kinds and for match-list limits from
// one pair per block up to unbounded, on skewed keys with NULL keys and
// NULL payloads on both sides and on one hot key's long chains.
func TestJoinPipelineKernelMatchesUnfused(t *testing.T) {
	rng := xrand.New(4301)
	inputs := [][2][]Row{}
	for trial := 0; trial < 12; trial++ {
		inputs = append(inputs, [2][]Row{
			skewedRows(rng, int(rng.Uint64n(150)), 3), skewedRows(rng, int(rng.Uint64n(150)), 3)})
	}
	hot := func(n int, key Datum) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{key, I(int64(i % 5)), I(int64(i))}
		}
		return rows
	}
	inputs = append(inputs,
		[2][]Row{hot(40, I(7)), append(hot(600, I(7)), Row{NullDatum, I(1), I(2)}, Row{I(8), NullDatum, NullDatum})},
		[2][]Row{hot(30, NullDatum), hot(30, I(1))},
		[2][]Row{nil, hot(10, I(1))},
		[2][]Row{hot(10, I(1)), nil})
	for _, pc := range joinPipeCases() {
		pl := pc.pipeline()
		reads := pl.reads(6)
		for in, lr := range inputs {
			lch, rch := rowsToChunk(lr[0], 3), rowsToChunk(lr[1], 3)
			for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
				joined := referenceJoin(lr[0], lr[1], 0, 0, 3, kind)
				want, wantKept := pc.reference(joined)
				for _, limit := range []int{1, 2, 3, 64, math.MaxInt} {
					if limit < 64 && len(joined) > 3000 {
						continue // thousands of tiny blocks only cost time
					}
					r := make([]int64, len(pl.filters)+1)
					acct := new(memAcct)
					got, err := joinChunks(lch, rch, 0, 0, kind, limit, acct, pl, reads, r)
					if err != nil {
						t.Fatalf("%s input %d kind %v limit %d: %v", pc.name, in, kind, limit, err)
					}
					width := 6
					if pc.proj != nil {
						width = len(pc.proj)
					}
					if len(got.cols) != width {
						t.Fatalf("%s input %d: %d output columns, want %d", pc.name, in, len(got.cols), width)
					}
					chunkEqualRows(t, got, want)
					if r[len(pl.filters)] != int64(len(joined)) {
						t.Fatalf("%s input %d kind %v limit %d: %d matches counted, want %d",
							pc.name, in, kind, limit, r[len(pl.filters)], len(joined))
					}
					for i := range pl.filters {
						// pl.filters is outermost first, wantKept innermost first.
						if got, want := r[i], wantKept[len(pl.filters)-1-i]; got != want {
							t.Fatalf("%s input %d kind %v limit %d: filter %d kept %d rows, want %d",
								pc.name, in, kind, limit, i, got, want)
						}
					}
					if acct.used.Load() != 0 {
						t.Fatalf("%s: %d match-list bytes still charged", pc.name, acct.used.Load())
					}
				}
			}
		}
	}
}

// TestJoinReadsPrunesColumns pins which join-output columns a pipeline
// gathers, and where: a join key nothing reads is not gathered, a column
// a top-level reference passes through goes to the output, one only
// computed expressions read to scratch.
func TestJoinReadsPrunesColumns(t *testing.T) {
	cases := []struct {
		pc                   joinPipeCase
		filter, out, scratch []int
	}{
		{joinPipeCases()[1], []int{1, 4}, []int{1, 4}, nil},
		{joinPipeCase{proj: []Expr{Col(4), Least(Col(4), Col(2)), Coalesce(Col(5), Const(0))}},
			nil, []int{4}, []int{2, 5}},
		{joinPipeCase{filters: []Expr{Bin(OpNe, Col(2), Col(5))}}, []int{2, 5}, []int{0, 1, 2, 3, 4, 5}, nil},
		{joinPipeCase{filters: []Expr{rowSumExpr{}}, proj: []Expr{Const(1)}}, []int{0, 1, 2, 3, 4, 5}, nil, nil},
	}
	same := func(a, b []int) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	for i, c := range cases {
		r := c.pc.pipeline().reads(6)
		if !same(r.filter, c.filter) || !same(r.out, c.out) || !same(r.scratch, c.scratch) {
			t.Fatalf("case %d: reads %+v, want filter %v out %v scratch %v", i, r, c.filter, c.out, c.scratch)
		}
	}
}

// TestJoinPipelineMatchesUnfused runs every case as a query on an
// unbounded cluster and on one whose budget forces the grace path (with
// hot keys, its block nested-loop fallback too), for both join kinds. The
// result must equal the unfused evaluation over the full-width join's
// rows, and the operator profile must count the join's matches and each
// filter's survivors as the unfused plan does.
func TestJoinPipelineMatchesUnfused(t *testing.T) {
	rng := xrand.New(4302)
	left, right := skewedRows(rng, 300, 3), skewedRows(rng, 200, 3)
	t.Setenv("TMPDIR", t.TempDir())
	mem := NewCluster(Options{Segments: 4})
	spill := NewCluster(Options{Segments: 4, MemoryBudget: spillBudget})
	t.Cleanup(func() { spill.Close() })
	for _, c := range []*Cluster{mem, spill} {
		mustCreate(t, c, "l", Schema{"k", "a", "b"}, 1, left)
		mustCreate(t, c, "r", Schema{"k", "c", "d"}, 2, right)
	}
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		j := JoinPlan{Left: Scan("l"), Right: Scan("r"), LeftKey: 0, RightKey: 0, Kind: kind}
		_, joined, err := mem.Query(j)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range joinPipeCases() {
			want, wantKept := pc.reference(joined)
			for name, c := range map[string]*Cluster{"in-memory": mem, "grace": spill} {
				spilled := c.Stats().SpilledBytes
				_, got, root, err := c.QueryAnalyzeCtx(context.Background(), pc.plan(j))
				if err != nil {
					t.Fatalf("%s %s kind %v: %v", pc.name, name, kind, err)
				}
				sameRows(t, got, want)
				if name == "grace" && c.Stats().SpilledBytes == spilled {
					t.Fatalf("%s kind %v: the budgeted join did not spill", pc.name, kind)
				}
				node := root
				if pc.proj != nil {
					node = node.Children[0]
				}
				for i := len(pc.filters) - 1; i >= 0; i-- {
					if node.Op != "Filter" || node.Rows != wantKept[i] {
						t.Fatalf("%s %s kind %v: filter node %s rows %d, want %d", pc.name, name, kind, node.Op, node.Rows, wantKept[i])
					}
					node = node.Children[0]
				}
				if node.Rows != int64(len(joined)) || node.Bytes != int64(len(joined))*6*DatumSize {
					t.Fatalf("%s %s kind %v: %s rows %d bytes %d, want %d matches", pc.name, name, kind,
						node.Op, node.Rows, node.Bytes, len(joined))
				}
			}
		}
	}
	assertNoSpillFiles(t)
}
