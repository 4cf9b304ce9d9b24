package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbcc/internal/xrand"
)

// Differential tests for the columnar kernels: each rewritten kernel
// (join, group-by, distinct, shuffle) is compared against a naive
// row-at-a-time reference on randomized inputs with NULLs and heavily
// skewed keys. The kernels promise not just the same multiset but the
// same row order the row engine produced, so the kernel-level checks
// assert exact equality; the query-level checks additionally assert the
// OpMetrics row counts match the reference cardinalities.

// skewedRows generates rows whose key column is heavily skewed: most keys
// come from a tiny hot set (forcing long hash-join chains and populous
// groups), a few from a wide range, plus NULLs.
func skewedRows(rng *xrand.Rand, n, ncols int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		row := make(Row, ncols)
		for c := range row {
			switch rng.Uint64n(10) {
			case 0:
				row[c] = NullDatum
			case 1, 2:
				row[c] = I(int64(rng.Uint64n(1 << 30))) // cold: near-unique
			default:
				row[c] = I(int64(rng.Uint64n(3))) // hot: 3 values
			}
		}
		rows[i] = row
	}
	return rows
}

// chunkEqualRows asserts a chunk materialises to exactly want, in order.
func chunkEqualRows(t *testing.T, ch *Chunk, want []Row) {
	t.Helper()
	got := chunkToRows(ch)
	if len(got) != len(want) {
		t.Fatalf("kernel produced %d rows, want %d", len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("row %d: got %v, want %v", r, got[r], want[r])
			}
		}
	}
}

// referenceJoin is the nested-loop join the kernel is held to: probe
// order, ascending build row within one probe row, NULL keys never match,
// unmatched probe rows of a left outer join padded with NULLs.
func referenceJoin(left, right []Row, lk, rk, rw int, kind JoinKind) []Row {
	var want []Row
	for _, lr := range left {
		matched := false
		for _, rr := range right {
			if !lr[lk].Null && !rr[rk].Null && lr[lk].Int == rr[rk].Int {
				matched = true
				want = append(want, append(append(Row{}, lr...), rr...))
			}
		}
		if !matched && kind == LeftOuterJoin {
			row := append(Row{}, lr...)
			for c := 0; c < rw; c++ {
				row = append(row, NullDatum)
			}
			want = append(want, row)
		}
	}
	return want
}

// fullJoin runs the join kernel with an empty pipeline: every match, at
// the join's full width.
func fullJoin(left, right *Chunk, lk, rk int, kind JoinKind, limit int, acct *memAcct) *Chunk {
	reads := pipeline{}.reads(len(left.cols) + len(right.cols))
	ch, err := joinChunks(left, right, lk, rk, kind, limit, acct, pipeline{}, reads, make([]int64, 1), nil)
	if err != nil {
		panic(err) // an empty pipeline evaluates nothing
	}
	return ch
}

// TestJoinChunksMatchesReference differential-tests the join kernel
// against the nested-loop reference on one pair of chunks, including the
// exact match order — for both join kinds, and for match-list limits from
// one pair per block up to unbounded, since a limit only decides how many
// blocks the same output is gathered in.
func TestJoinChunksMatchesReference(t *testing.T) {
	check := func(name string, left, right []Row, lk, rk int) {
		t.Helper()
		lch, rch := rowsToChunk(left, 2), rowsToChunk(right, 2)
		for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
			want := referenceJoin(left, right, lk, rk, 2, kind)
			for _, limit := range []int{1, 3, 64, math.MaxInt} {
				if limit < 64 && len(want) > 2000 {
					continue // thousands of tiny blocks only cost time
				}
				acct := new(memAcct)
				got := fullJoin(lch, rch, lk, rk, kind, limit, acct)
				if len(got.cols) != 4 {
					t.Fatalf("%s kind %v: %d output columns, want 4", name, kind, len(got.cols))
				}
				chunkEqualRows(t, got, want)
				if acct.used.Load() != 0 {
					t.Fatalf("%s kind %v limit %d: %d match-list bytes still charged", name, kind, limit, acct.used.Load())
				}
				if ceiling := int64(min(limit, len(want))) * matchPairBytes; acct.peak.Load() > ceiling {
					t.Fatalf("%s kind %v limit %d: match lists peaked at %d bytes, cap %d", name, kind, limit, acct.peak.Load(), ceiling)
				}
			}
		}
	}

	// Random chunks: skewed keys, NULL keys and NULL payloads on both sides.
	rng := xrand.New(71)
	for trial := 0; trial < 40; trial++ {
		check(fmt.Sprintf("trial %d", trial),
			skewedRows(rng, int(rng.Uint64n(120)), 2), skewedRows(rng, int(rng.Uint64n(120)), 2), 0, 1)
	}

	seq := func(n int, key func(i int) Datum) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{key(i), I(int64(i))}
		}
		return rows
	}
	some := seq(50, func(i int) Datum { return I(int64(i % 7)) })
	check("empty build side", some, nil, 0, 0)
	check("empty probe side", nil, some, 0, 0)
	check("both sides empty", nil, nil, 0, 0)
	// No probe key exists on the build side: the inner join is empty, the
	// outer join is all pads.
	check("all unmatched", some, seq(50, func(i int) Datum { return I(int64(100 + i)) }), 0, 0)
	check("all-NULL probe keys", seq(50, func(int) Datum { return NullDatum }), some, 0, 0)
	check("all-NULL build keys", some, seq(50, func(int) Datum { return NullDatum }), 0, 0)
	// One hot key: each of three probe rows fans out over 10^4 build rows,
	// with cold and NULL-keyed rows around them.
	hotBuild := seq(10_000, func(int) Datum { return I(7) })
	hotBuild = append(hotBuild, Row{I(8), NullDatum}, Row{NullDatum, I(1)})
	hotProbe := []Row{{I(7), I(1)}, {I(8), NullDatum}, {NullDatum, I(2)}, {I(7), I(3)}, {I(9), I(4)}, {I(7), NullDatum}}
	check("hot key", hotProbe, hotBuild, 0, 0)
	// Keys a shuffle over eight segments places on one segment — they share
	// their low three hash bits — with NULL keys and repeats on both sides.
	segKeys := oneSegmentKeys(300, 3, 8)
	segRows := func(n int) []Row {
		return seq(n, func(int) Datum {
			if rng.Uint64n(10) == 0 {
				return NullDatum
			}
			return I(segKeys[rng.Uint64n(uint64(len(segKeys)))])
		})
	}
	check("one segment of 8", segRows(600), segRows(400), 0, 0)
}

// TestGroupChunkMatchesReference differential-tests the group-by fold
// kernel (partial layout in, one row per group out) against a map-based
// reference, including first-seen group order.
func TestGroupChunkMatchesReference(t *testing.T) {
	rng := xrand.New(73)
	aggs := []Agg{
		{Op: AggMin, Arg: Col(1), Name: "mn"},
		{Op: AggMax, Arg: Col(1), Name: "mx"},
		{Op: AggSum, Arg: Col(1), Name: "sm"},
	}
	check := func(raw []Row) {
		t.Helper()
		// Partial layout: one key column, then one value column per agg.
		partial := make([]Row, len(raw))
		for i, r := range raw {
			partial[i] = Row{r[0], r[1], r[1], r[1]}
		}

		type state struct{ mn, mx, sm Datum }
		ref := map[Datum]*state{}
		var order []Datum
		for _, r := range raw {
			st, ok := ref[r[0]]
			if !ok {
				st = &state{mn: NullDatum, mx: NullDatum, sm: NullDatum}
				ref[r[0]] = st
				order = append(order, r[0])
			}
			if r[1].Null {
				continue
			}
			if st.mn.Null || r[1].Int < st.mn.Int {
				st.mn = r[1]
			}
			if st.mx.Null || r[1].Int > st.mx.Int {
				st.mx = r[1]
			}
			if st.sm.Null {
				st.sm = I(0)
			}
			st.sm = I(st.sm.Int + r[1].Int)
		}
		want := make([]Row, len(order))
		for i, k := range order {
			st := ref[k]
			want[i] = Row{k, st.mn, st.mx, st.sm}
		}
		chunkEqualRows(t, groupChunk(rowsToChunk(partial, 4), 1, aggs, nil), want)
	}
	for trial := 0; trial < 40; trial++ {
		check(skewedRows(rng, int(rng.Uint64n(250)), 2))
	}
	// Group keys a shuffle over eight segments places on one segment, NULL
	// keys and NULL values among them.
	segKeys := oneSegmentKeys(500, 3, 8)
	raw := skewedRows(rng, 2000, 2)
	for _, r := range raw {
		if !r[0].Null {
			r[0] = I(segKeys[uint64(r[0].Int)%uint64(len(segKeys))])
		}
	}
	check(raw)
}

// TestDistinctChunkMatchesReference differential-tests the dedup kernel
// against a map reference, including keep-first order.
func TestDistinctChunkMatchesReference(t *testing.T) {
	rng := xrand.New(79)
	check := func(rows []Row) {
		t.Helper()
		seen := map[[3]Datum]bool{}
		var want []Row
		for _, r := range rows {
			k := [3]Datum{r[0], r[1], r[2]}
			if !seen[k] {
				seen[k] = true
				want = append(want, r)
			}
		}
		chunkEqualRows(t, distinctChunk(rowsToChunk(rows, 3), nil), want)
	}
	for trial := 0; trial < 40; trial++ {
		check(skewedRows(rng, int(rng.Uint64n(300)), 3))
	}
	// Rows DISTINCT's whole-row shuffle over eight segments places on one
	// segment, NULLs and duplicates among them.
	var segRows []Row
	for len(segRows) < 2000 {
		for _, r := range skewedRows(rng, 100, 3) {
			if referenceRowHash(r)&7 == 3 {
				segRows = append(segRows, r)
			}
		}
	}
	check(segRows)
}

// TestHashRowsMatchesReference pins hashRows to the row hash's definition:
// every column range, a NULL in every column position (alone and with
// others), all-valid columns, and buffers that split the chunk into
// blocks at arbitrary offsets.
func TestHashRowsMatchesReference(t *testing.T) {
	rng := xrand.New(131)
	const ncols, n = 4, 2*hashBlock + 37
	rows := make([]Row, n)
	for i := range rows {
		row := make(Row, ncols)
		for c := range row {
			row[c] = I(int64(rng.Uint64n(1 << 40)))
		}
		switch {
		case i < ncols:
			row[i] = NullDatum // one NULL, in each position
		case i < 2*ncols:
			for c := range row {
				row[c] = NullDatum // all NULL
			}
		case rng.Uint64n(4) == 0:
			row[rng.Uint64n(ncols)] = NullDatum
		}
		rows[i] = row
	}
	ch := rowsToChunk(rows, ncols)
	ch.nulls[ncols-1] = nil // ...and one column with no NULLs at all
	for i := range rows {
		if rows[i][ncols-1].Null {
			rows[i][ncols-1] = I(0)
		}
	}
	for lo := 0; lo <= ncols; lo++ {
		for hi := lo; hi <= ncols; hi++ {
			for _, block := range []int{1, 100, hashBlock, n} {
				buf := make([]uint64, block)
				for r0 := 0; r0 < n; r0 += block {
					for i, got := range hashRows(ch, lo, hi, r0, buf) {
						if want := referenceRowHash(rows[r0+i][lo:hi]); got != want {
							t.Fatalf("cols [%d,%d) block %d: row %d (%v) hashed to %x, want %x",
								lo, hi, block, r0+i, rows[r0+i], got, want)
						}
					}
				}
			}
		}
	}
}

// TestGroupChunkLeavesNoAllClearBitmaps pins the "nil bitmap = no NULLs"
// invariant on group-by output: aggregate states start from the group's
// first row instead of a set NULL bit, and a state that was NULL and then
// got a value leaves no all-clear bitmap behind.
func TestGroupChunkLeavesNoAllClearBitmaps(t *testing.T) {
	aggs := []Agg{{Op: AggMin, Arg: Col(1), Name: "mn"}, {Op: AggCount, Name: "n"}}
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{I(int64(i % 7)), I(int64(i)), I(1)}
	}
	out := groupChunk(rowsToChunk(rows, 3), 1, aggs, nil)
	for c, nb := range out.nulls {
		if nb != nil {
			t.Fatalf("no NULL input: column %d of the output has a null bitmap %v", c, nb)
		}
	}

	// Group 1 starts NULL and then gets a value; group 2 stays NULL.
	rows = []Row{{I(1), NullDatum, I(1)}, {I(1), I(5), I(1)}, {I(2), NullDatum, I(1)}, {I(3), I(3), I(1)}}
	out = groupChunk(rowsToChunk(rows, 3), 1, aggs, nil)
	chunkEqualRows(t, out, []Row{{I(1), I(5), I(2)}, {I(2), NullDatum, I(1)}, {I(3), I(3), I(1)}})
	rows[2][1] = I(9)
	out = groupChunk(rowsToChunk(rows, 3), 1, aggs, nil)
	if out.nulls[1] != nil {
		t.Fatalf("every NULL state got a value: min column keeps bitmap %v", out.nulls[1])
	}
}

// TestKernelOutputsSurvivePoolReuse runs a join, a join with a fused
// pipeline, a group-by and a distinct, and writes a table through a fused
// join pipeline, then runs 50 more kernels and fused statements that take
// the same pooled hash-table arrays, match lists and scratch columns back
// out, and asserts the first outputs and the table's stored chunks are
// still bit-identical — values, null bitmaps and nil-ness — and equal to a
// rerun. A pooled array that escaped into an output would be overwritten
// here.
func TestKernelOutputsSurvivePoolReuse(t *testing.T) {
	rng := xrand.New(137)
	aggs := []Agg{{Op: AggMin, Arg: Col(1), Name: "mn"}, {Op: AggCount, Name: "n"}}
	partial := func(raw []Row) *Chunk {
		rows := make([]Row, len(raw))
		for i, r := range raw {
			rows[i] = Row{r[0], r[1], I(1)}
		}
		return rowsToChunk(rows, 3)
	}
	// The fused pipeline reads its filter column and its computed columns'
	// input from pooled scratch, with NULLs in both (NULL payloads and left
	// outer pads).
	fused := Project(Filter(JoinPlan{Left: Scan("l"), Right: Scan("r"), Kind: LeftOuterJoin}, Bin(OpNe, Col(1), Const(1))),
		ProjCol{Expr: Col(0), Name: "k"}, ProjCol{Expr: Coalesce(Col(3), Col(1)), Name: "c"},
		ProjCol{Expr: Bin(OpAdd, Col(3), Const(1)), Name: "s"})
	pl, _ := splitPipeline(fused)
	reads := pl.reads(4)
	pipe := func(left, right *Chunk, kind JoinKind) *Chunk {
		ch, err := joinChunks(left, right, 0, 0, kind, math.MaxInt, new(memAcct), pl, reads, make([]int64, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	lrows, rrows := skewedRows(rng, 3000, 2), skewedRows(rng, 1500, 2)
	left, right := rowsToChunk(lrows, 2), rowsToChunk(rrows, 2)
	grouped := partial(skewedRows(rng, 3000, 2))
	dup := rowsToChunk(skewedRows(rng, 3000, 2), 2)
	c := NewCluster(Options{Segments: 4})
	mustCreate(t, c, "l", Schema{"k", "a"}, 1, lrows)
	mustCreate(t, c, "r", Schema{"k", "b"}, 1, rrows)
	ctas := 0
	write := func() *Table {
		name := fmt.Sprintf("fused%d", ctas)
		ctas++
		if _, err := c.CreateTableAs(name, fused, NoDistKey); err != nil {
			t.Fatal(err)
		}
		tab, _ := c.Table(name)
		return tab
	}
	stored := func(tab *Table) []*Chunk {
		var chunks []*Chunk
		for _, list := range tab.snapshotParts() {
			chunks = append(chunks, list...)
		}
		return chunks
	}
	run := func() []*Chunk {
		return append([]*Chunk{
			fullJoin(left, right, 0, 0, LeftOuterJoin, math.MaxInt, new(memAcct)),
			pipe(left, right, LeftOuterJoin),
			groupChunk(grouped, 1, aggs, nil),
			distinctChunk(dup, nil),
		}, stored(write())...)
	}
	first := run()
	want := make([]*Chunk, len(first))
	for i, ch := range first {
		want[i] = cloneChunk(ch)
	}
	for i := 0; i < 50; i++ {
		ch := rowsToChunk(skewedRows(rng, int(rng.Uint64n(4000)), 2), 2)
		switch i % 5 {
		case 0:
			fullJoin(ch, ch, 0, 1, InnerJoin, math.MaxInt, new(memAcct))
		case 1:
			groupChunk(partial(chunkToRows(ch)), 1, aggs, nil)
		case 2:
			distinctChunk(ch, nil)
		case 3:
			pipe(ch, ch, LeftOuterJoin)
		case 4:
			write()
		}
	}
	again := run()
	names := []string{"join", "fused join", "group", "distinct"}
	for i := range want {
		name := "fused table chunk"
		if i < len(names) {
			name = names[i]
		}
		if !chunksIdentical(first[i], want[i]) {
			t.Fatalf("%s output changed after pooled arrays were reused", name)
		}
		if !chunksIdentical(again[i], want[i]) {
			t.Fatalf("%s output differs on a rerun with recycled pool arrays", name)
		}
	}
}

// arenaPoison is the pattern TestStatementScratchNeverEscapes writes over
// every pooled int64 box.
const arenaPoison = int64(-0x5a5a5a5a5a5a5a5b)

// drainI64Pool empties the int64 scratch pool, the arena's source, and
// returns its boxes. With GOMAXPROCS at 1 every pooled box is reachable
// from the one P, so nothing stays behind.
func drainI64Pool() []*[]int64 {
	var boxes []*[]int64
	for k := range i64Scratch.classes {
		for {
			p, _ := i64Scratch.classes[k].Get().(*[]int64)
			if p == nil {
				break
			}
			boxes = append(boxes, p)
		}
	}
	return boxes
}

// poisonBoxes overwrites every value of every box, up to its capacity.
func poisonBoxes(boxes []*[]int64) {
	for _, p := range boxes {
		s := (*p)[:cap(*p)]
		for i := range s {
			s[i] = arenaPoison
		}
	}
}

// poisonHeaderSlabs overwrites every chunk header the slabs of c's idle
// execution environments hold, handed out or not: length -1, nil columns.
func poisonHeaderSlabs(c *Cluster) {
	c.envMu.Lock()
	defer c.envMu.Unlock()
	for _, e := range c.envs {
		for _, b := range e.scratch.chunks.blocks {
			for i := range b {
				b[i] = Chunk{length: -1}
			}
		}
	}
}

// refillI64Pool puts boxes back into the int64 scratch pool.
func refillI64Pool(boxes []*[]int64) {
	for _, p := range boxes {
		putI64(p)
	}
}

// TestStatementScratchNeverEscapes holds the arena's ownership rule: a
// table or a result holds only fresh memory, and everything else belongs
// to the statement and goes back to the pool or to the recycled arena's
// slabs when it ends. After each statement kind — CTAS with a placement
// shuffle, CTAS of a co-located group-by, CTAS of a projection aliasing a
// UNION ALL or a scan concatenation, CTAS of a projection aliasing a
// scan's stored chunks (fresh columns under an arena header), INSERT …
// SELECT onto one segment, Query, EXPLAIN ANALYZE, DELETE, a run under
// 20 % injected faults and one spilling under a memory budget — it drains
// the pool, poisons every box and every recycled chunk header, and
// compares the stored tables and returned rows with a rerun on a fresh
// cluster that takes only fresh memory. The statements themselves run on poisoned
// pooled memory from the case before, so a kernel that reads a slot it
// did not write shows too. A cancelled statement must keep its arena
// until its in-flight tasks have drained: a box drained from the pool
// while its task is still blocked must stay poisoned.
func TestStatementScratchNeverEscapes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := xrand.New(211)
	rowsA := skewedRows(rng, 2400, 2)
	rowsB := skewedRows(rng, 1800, 2)
	for i := range rowsA[:300] {
		rowsA[i][0] = I(3) // one key for INSERT … SELECT onto a single segment
	}
	setup := func(t *testing.T, opts Options) *Cluster {
		opts.Segments, opts.Workers = 4, 4
		c := NewCluster(opts)
		// a's segments hold several stored chunks, so Scan concatenates.
		mustCreate(t, c, "a", Schema{"k", "v"}, 0, rowsA[:600])
		for off := 600; off < len(rowsA); off += 600 {
			if err := c.InsertRows("a", rowsA[off:off+600]); err != nil {
				t.Fatal(err)
			}
		}
		mustCreate(t, c, "b", Schema{"k", "w"}, 1, rowsB)
		mustCreate(t, c, "dst", Schema{"k", "v"}, 0, nil)
		return c
	}
	join := JoinPlan{Left: Scan("a"), Right: Scan("b"), LeftKey: 0, RightKey: 0, Kind: LeftOuterJoin}
	fused := Project(Filter(join, Bin(OpNe, Col(1), Const(1))),
		ProjCol{Expr: Col(0), Name: "k"}, ProjCol{Expr: Coalesce(Col(3), Col(1)), Name: "c"},
		ProjCol{Expr: Bin(OpAdd, Col(3), Const(1)), Name: "s"})
	grouped := GroupBy(fused, []int{1}, Agg{Op: AggMin, Arg: Col(0), Name: "mn"}, Agg{Op: AggCount, Name: "n"})
	ctas := func(p Plan, distKey int) func(*Cluster) ([]Row, error) {
		return func(c *Cluster) ([]Row, error) {
			_, err := c.CreateTableAs("out", p, distKey)
			return nil, err
		}
	}
	type statementCase struct {
		name   string
		opts   Options
		tables []string
		run    func(c *Cluster) ([]Row, error)
	}
	cases := []statementCase{
		{name: "ctas placement shuffle", tables: []string{"out"}, run: ctas(Distinct(fused), 2)},
		{name: "ctas co-located group-by", tables: []string{"out"},
			run: ctas(GroupBy(Scan("a"), []int{0}, Agg{Op: AggMin, Arg: Col(1), Name: "mn"},
				Agg{Op: AggCount, Name: "n"}), 0)},
		{name: "ctas projection aliasing union", tables: []string{"out"},
			run: ctas(Project(UnionAll(Scan("a"), Scan("b")), ProjCol{Expr: Col(1), Name: "v"},
				ProjCol{Expr: Col(0), Name: "k"}), NoDistKey)},
		{name: "ctas projection aliasing scan", tables: []string{"out"},
			run: ctas(Project(Scan("a"), ProjCol{Expr: Col(1), Name: "v"}), NoDistKey)},
		{name: "ctas projection aliasing stored chunks", tables: []string{"out"},
			run: ctas(Project(Scan("b"), ProjCol{Expr: Col(1), Name: "w"}, ProjCol{Expr: Col(0), Name: "k"}), NoDistKey)},
		{name: "insert select onto one segment", tables: []string{"dst"},
			run: func(c *Cluster) ([]Row, error) {
				_, err := c.InsertSelectCtx(context.Background(), "dst", Distinct(Filter(Scan("a"), Bin(OpEq, Col(0), Const(3)))))
				return nil, err
			}},
		{name: "query", run: func(c *Cluster) ([]Row, error) {
			_, rows, err := c.Query(grouped)
			return rows, err
		}},
		{name: "explain analyze", run: func(c *Cluster) ([]Row, error) {
			_, rows, _, err := c.QueryAnalyzeCtx(context.Background(), Distinct(Project(UnionAll(Scan("a"), Scan("b")),
				ProjCol{Expr: Bin(OpAdd, Col(0), Col(1)), Name: "s"})))
			return rows, err
		}},
		{name: "delete", tables: []string{"a"}, run: func(c *Cluster) ([]Row, error) {
			_, err := c.DeleteRows(context.Background(), Filter(Scan("a"), Bin(OpGt, Bin(OpAdd, Col(0), Col(1)), Const(4))))
			return nil, err
		}},
		{name: "faults and retries", opts: Options{Faults: FaultConfig{Seed: 5, FailureRate: 0.2}},
			tables: []string{"out"}, run: ctas(grouped, 0)},
		{name: "spill under a memory budget", opts: Options{MemoryBudget: 1 << 16},
			tables: []string{"out"}, run: ctas(Distinct(grouped), NoDistKey)},
	}
	snapshot := func(t *testing.T, c *Cluster, tables []string, rows []Row) [][][]Row {
		out := [][][]Row{{rows}}
		for _, name := range tables {
			tab, ok := c.Table(name)
			if !ok {
				t.Fatalf("table %s missing", name)
			}
			for seg, list := range tab.snapshotParts() {
				for _, ch := range list {
					if ch.length < 0 {
						t.Fatalf("table %s segment %d keeps a chunk header its statement's arena recycled", name, seg)
					}
				}
			}
			out = append(out, segmentRows(tab))
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := setup(t, tc.opts)
			rows, err := tc.run(c)
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); tc.opts.MemoryBudget > 0 && st.SpilledBytes == 0 || tc.opts.Faults.FailureRate > 0 && st.TaskRetries == 0 {
				t.Fatalf("the statement neither spilled nor retried as its case needs: %+v", st)
			}
			boxes := drainI64Pool()
			poisonBoxes(boxes)
			refillI64Pool(boxes)
			poisonHeaderSlabs(c)
			got := snapshot(t, c, tc.tables, rows)

			// The rerun takes only fresh memory: the pool's boxes sit aside.
			boxes = drainI64Pool()
			ref := setup(t, Options{})
			refRows, err := tc.run(ref)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshot(t, ref, tc.tables, refRows)
			refillI64Pool(boxes)
			if len(rows) == 0 && len(tc.tables) == 0 {
				t.Fatal("the case checks nothing")
			}
			for i := range want {
				for seg := range want[i] {
					if !slices.EqualFunc(got[i][seg], want[i][seg], slices.Equal) {
						t.Fatalf("snapshot %d segment %d differs from a rerun on fresh memory after the pool was poisoned", i, seg)
					}
				}
			}
		})
	}

	t.Run("cancelled mid-flight", func(t *testing.T) {
		c := setup(t, Options{})
		started, unblock := make(chan struct{}), make(chan struct{})
		var once sync.Once
		c.RegisterColumnUDF("stall", func(out []int64, args []UDFArg) {
			once.Do(func() { close(started) })
			<-unblock
			for i := range out {
				out[i] = args[0].At(i)
			}
		})
		stall, err := c.CallUDF("stall", Col(1))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			// The union's concatenations and the UDF's output vectors are
			// arena memory taken before and while the tasks stall.
			_, err := c.CreateTableAsCtx(ctx, "out", Project(UnionAll(Scan("a"), Scan("b")),
				ProjCol{Expr: stall, Name: "v"}), NoDistKey)
			done <- err
		}()
		<-started
		cancel()
		time.Sleep(20 * time.Millisecond) // room for an early release to happen
		boxes := drainI64Pool()
		poisonBoxes(boxes)
		close(unblock)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled CTAS returned %v, want context.Canceled", err)
		}
		for _, p := range boxes {
			for _, v := range (*p)[:cap(*p)] {
				if v != arenaPoison {
					t.Fatal("a box the pool held while the cancelled statement's tasks were in flight was written by them")
				}
			}
		}
		refillI64Pool(boxes)
		if _, ok := c.Table("out"); ok {
			t.Fatal("cancelled CTAS published its table")
		}
	})
}

// cloneChunk deep-copies a chunk, keeping nil bitmaps nil.
func cloneChunk(ch *Chunk) *Chunk {
	out := &Chunk{length: ch.length, cols: make([][]int64, len(ch.cols)), nulls: make([]nullBitmap, len(ch.nulls))}
	for c := range ch.cols {
		out.cols[c] = append([]int64(nil), ch.cols[c]...)
		if ch.nulls[c] != nil {
			out.nulls[c] = append(nullBitmap{}, ch.nulls[c]...)
		}
	}
	return out
}

// chunksIdentical reports whether two chunks hold the same values and the
// same null bitmaps, word for word, with nil only where the other is nil.
func chunksIdentical(a, b *Chunk) bool {
	if a.length != b.length || len(a.cols) != len(b.cols) {
		return false
	}
	for c := range a.cols {
		if !slices.Equal(a.cols[c], b.cols[c]) || (a.nulls[c] == nil) != (b.nulls[c] == nil) ||
			!slices.Equal(a.nulls[c], b.nulls[c]) {
			return false
		}
	}
	return true
}

// referenceRowHash recomputes the whole-row shuffle hash from its
// definition, independently of hashRows.
func referenceRowHash(r Row) uint64 {
	var h uint64
	for _, d := range r {
		if d.Null {
			h = xrand.Mix64(h ^ 0x9e37)
		} else {
			h = xrand.Mix64(h ^ uint64(d.Int))
		}
	}
	return h
}

// TestShuffleMatchesReference differential-tests the shuffle under both
// routes — by key column and by whole-row hash — against the row-at-a-time
// placement rule: every row lands on the segment the rule chooses (hash
// modulo the segment count, power of two or not; NULL keys on segment 0),
// per-segment order is source-major (segment 0's rows first, in their
// original order), and the moved byte count equals the reference count of
// segment-changing rows at the wire width.
func TestShuffleMatchesReference(t *testing.T) {
	rng := xrand.New(83)
	for trial := 0; trial < 40; trial++ {
		segs := int(rng.Uint64n(8)) + 1
		c := NewCluster(Options{Segments: segs})
		rows := skewedRows(rng, int(rng.Uint64n(400)), 2)
		if trial%5 == 0 {
			for _, r := range rows {
				r[0] = NullDatum // a key column that is NULL throughout
			}
		}
		in := &relation{schema: Schema{"a", "b"}, parts: make([]*Chunk, segs), distKey: NoDistKey}
		// Spread input rows round-robin across source segments.
		srcRows := make([][]Row, segs)
		for i, r := range rows {
			srcRows[i%segs] = append(srcRows[i%segs], r)
		}
		for s := range in.parts {
			in.parts[s] = rowsToChunk(srcRows[s], 2)
		}

		for _, key := range []int{0, NoDistKey} {
			destOf := func(r Row) int {
				if key == NoDistKey {
					return int(referenceRowHash(r) % uint64(segs))
				}
				if r[0].Null {
					return 0
				}
				return int(xrand.Mix64(uint64(r[0].Int)) % uint64(segs))
			}
			out, moved, err := c.newExecEnv(context.Background()).shuffle(in, key, nil)
			if err != nil {
				t.Fatalf("shuffle: %v", err)
			}

			wantParts := make([][]Row, segs)
			var wantMoved int64
			for src := 0; src < segs; src++ {
				for _, r := range srcRows[src] {
					d := destOf(r)
					if d != src {
						wantMoved += int64(len(r)) * DatumWireSize
					}
					wantParts[d] = append(wantParts[d], r)
				}
			}
			if moved != wantMoved {
				t.Fatalf("trial %d key %d: shuffle charged %d bytes, want %d", trial, key, moved, wantMoved)
			}
			if out.distKey != key {
				t.Fatalf("trial %d key %d: output claims distribution key %d", trial, key, out.distKey)
			}
			for s := 0; s < segs; s++ {
				chunkEqualRows(t, out.parts[s], wantParts[s])
			}
		}
	}
}

// TestShuffleRetriesAndCancels holds the shuffle's two task phases to
// its publish rule. Over a NULL-bearing, skewed-key input at 1, 7 and 8
// segments, a run with 30 % of task attempts failing and retried gives
// output bit-identical to a fault-free run, for both routes and with the
// destinations in fresh or arena memory. A cancel that lands between the
// phases — after every source has routed, counted and sorted its rows,
// before any destination gathers — returns context.Canceled and no
// relation, cancels every gather task, and gives back as many pooled
// index boxes as a completed shuffle does: every permutation included.
func TestShuffleRetriesAndCancels(t *testing.T) {
	rng := xrand.New(97)
	for _, segs := range []int{1, 7, 8} {
		in := &relation{schema: Schema{"a", "b", "c"}, parts: make([]*Chunk, segs), distKey: NoDistKey}
		srcRows := make([][]Row, segs)
		for i, r := range skewedRows(rng, 900, 3) {
			srcRows[i%segs] = append(srcRows[i%segs], r)
		}
		for s := range in.parts {
			in.parts[s] = rowsToChunk(srcRows[s], 3)
		}
		clean := NewCluster(Options{Segments: segs})
		faulty := NewCluster(Options{Segments: segs, Faults: FaultConfig{
			Seed: 5, FailureRate: 0.3, MaxTaskRetries: 30, RetryBackoff: time.Microsecond}})
		var faults int64
		for trial := 0; trial < 4; trial++ {
			for _, key := range []int{0, NoDistKey} {
				want, wantMoved, err := clean.newExecEnv(context.Background()).shuffle(in, key, nil)
				if err != nil {
					t.Fatal(err)
				}
				var a *arena
				if trial%2 == 1 {
					a = new(arena)
				}
				e := faulty.newExecEnv(context.Background())
				got, moved, err := e.shuffle(in, key, a)
				if err != nil {
					t.Fatalf("%d segments: shuffle under faults: %v", segs, err)
				}
				faults += e.opFaults.Load()
				if moved != wantMoved {
					t.Fatalf("%d segments key %d: charged %d bytes under faults, want %d", segs, key, moved, wantMoved)
				}
				for s := range want.parts {
					if !chunksIdentical(got.parts[s], want.parts[s]) {
						t.Fatalf("%d segments key %d: segment %d differs under faults", segs, key, s)
					}
				}
				if a != nil {
					a.release()
				}
			}
		}
		if faults == 0 {
			t.Fatalf("%d segments: no fault was injected", segs)
		}

		// Serial tasks on one P, without a collection in between, so a
		// drain of the pool finds every box the shuffle gave back.
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			serial := NewCluster(Options{Segments: segs, Workers: 1})
			drainI32Pool()
			if _, _, err := serial.newExecEnv(context.Background()).shuffle(in, 0, nil); err != nil {
				t.Fatal(err)
			}
			completed := len(drainI32Pool())
			ctx := &cancelAfterFirstCheck{Context: context.Background(), done: make(chan struct{})}
			e := serial.newExecEnv(ctx)
			out, _, err := e.shuffle(in, 0, new(arena))
			if !errors.Is(err, context.Canceled) || out != nil {
				t.Fatalf("%d segments: shuffle cancelled between phases returned %v, %v; want context.Canceled and no relation", segs, out, err)
			}
			if ctx.checks.Load() == 0 || e.opCancelled.Load() != int64(segs) {
				t.Fatalf("%d segments: the cancel did not land between the phases (%d checks, %d of %d gathers cancelled)",
					segs, ctx.checks.Load(), e.opCancelled.Load(), segs)
			}
			if raceEnabled {
				return // the race detector's sync.Pool drops Puts at random
			}
			if got := len(drainI32Pool()); got != completed || completed <= segs {
				t.Fatalf("%d segments: a cancelled shuffle gave back %d index boxes, a completed one %d (one permutation per source plus the routing box)",
					segs, got, completed)
			}
		}()
	}
}

// cancelAfterFirstCheck is a context cancelled just after the first time
// anything asks for its error: that Err reports nil and closes Done, and
// every later one reports context.Canceled. execEnv.parallel asks once,
// after its last task, so a shuffle sees the cancel land between its
// phases.
type cancelAfterFirstCheck struct {
	context.Context
	checks atomic.Int32
	done   chan struct{}
}

func (c *cancelAfterFirstCheck) Done() <-chan struct{} { return c.done }

func (c *cancelAfterFirstCheck) Err() error {
	if c.checks.Add(1) == 1 {
		close(c.done)
		return nil
	}
	return context.Canceled
}

// drainI32Pool empties the int32 scratch pool and returns its boxes.
func drainI32Pool() []*[]int32 {
	var boxes []*[]int32
	for k := range i32Scratch.classes {
		for {
			p, _ := i32Scratch.classes[k].Get().(*[]int32)
			if p == nil {
				break
			}
			boxes = append(boxes, p)
		}
	}
	return boxes
}

// referencePartition is the row-at-a-time placement the partition
// kernel replaced: walk the rows once, appending each to its destination.
// Shared by the differential tests and FuzzRadixPartition as the ground
// truth for both content and order.
func referencePartition(ch *Chunk, dests []int32, nparts int) [][]Row {
	parts := make([][]Row, nparts)
	rows := chunkToRows(ch)
	for r := 0; r < ch.length; r++ {
		parts[dests[r]] = append(parts[dests[r]], rows[r])
	}
	return parts
}

// TestRadixPartitionMatchesReference differential-tests the partition
// kernel against the row-at-a-time reference across random seeds,
// segment counts, null patterns (none, mixed, all-NULL columns) and
// skewed destinations. Beyond row equality it gathers into stale memory
// and asserts every NULL slot's payload reads zero, the contract that
// lets a shuffle destination come from the statement's arena.
func TestRadixPartitionMatchesReference(t *testing.T) {
	rng := xrand.New(101)
	for trial := 0; trial < 60; trial++ {
		nparts := int(rng.Uint64n(7)) + 1
		ncols := int(rng.Uint64n(3)) + 1
		n := int(rng.Uint64n(300))
		rows := skewedRows(rng, n, ncols)
		switch trial % 4 {
		case 1: // no NULLs anywhere: the branch-free fast path
			for _, r := range rows {
				for c := range r {
					if r[c].Null {
						r[c] = I(7)
					}
				}
			}
		case 2: // an all-NULL column
			for _, r := range rows {
				r[0] = NullDatum
			}
		}
		ch := rowsToChunk(rows, ncols)
		dests := make([]int32, n)
		for r := range dests {
			if rng.Uint64n(3) == 0 {
				dests[r] = int32(rng.Uint64n(uint64(nparts))) // cold spread
			} else {
				dests[r] = 0 // hot destination
			}
		}

		rt := routing{bounds: make([]int32, nparts+1), perm: make([]int32, n)}
		partitionRows(dests, rt)
		fresh := partitionChunk(ch, dests, nparts)
		want := referencePartition(ch, dests, nparts)
		for d := 0; d < nparts; d++ {
			chunkEqualRows(t, fresh[d], want[d])
			part := poisonedChunk(ncols, len(want[d]))
			gatherRows(part, []*Chunk{ch}, []routing{rt}, d)
			chunkEqualRows(t, part, want[d])
			for c := 0; c < ncols; c++ {
				for r := 0; r < part.length; r++ {
					if part.nulls[c].get(r) && part.cols[c][r] != 0 {
						t.Fatalf("trial %d: part %d col %d row %d: NULL slot has stale payload %d",
							trial, d, c, r, part.cols[c][r])
					}
				}
			}
		}
	}
}

// TestKernelOpMetricsRowCounts runs a query through every rewritten
// operator and asserts the OpMetrics row counts equal reference
// cardinalities computed row-at-a-time.
func TestKernelOpMetricsRowCounts(t *testing.T) {
	rng := xrand.New(89)
	for trial := 0; trial < 10; trial++ {
		rows := skewedRows(rng, int(rng.Uint64n(200))+50, 2)
		c := NewCluster(Options{Segments: 4})
		mustCreate(t, c, "t", Schema{"k", "x"}, 0, rows)

		// Reference cardinalities.
		var joinOut int64
		for _, a := range rows {
			for _, b := range rows {
				if !a[0].Null && !b[0].Null && a[0].Int == b[0].Int {
					joinOut++
				}
			}
		}
		// Groups form over the join output: every non-NULL key self-matches,
		// NULL keys never join and so never group.
		groups := map[Datum]bool{}
		for _, r := range rows {
			if !r[0].Null {
				groups[r[0]] = true
			}
		}
		distinct := map[[2]Datum]bool{}
		for _, r := range rows {
			distinct[[2]Datum{r[0], r[1]}] = true
		}

		p := GroupBy(
			JoinPlan{Left: Scan("t"), Right: Scan("t"), LeftKey: 0, RightKey: 0, Kind: InnerJoin},
			[]int{0},
			Agg{Op: AggCount, Name: "n"})
		_, got, root, err := c.QueryAnalyzeCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if root.Rows != int64(len(groups)) {
			t.Fatalf("trial %d: GroupBy OpMetrics.Rows = %d, want %d groups", trial, root.Rows, len(groups))
		}
		if len(got) != len(groups) {
			t.Fatalf("trial %d: %d result rows, want %d", trial, len(got), len(groups))
		}
		join := root.Children[0]
		if join.Rows != joinOut {
			t.Fatalf("trial %d: join OpMetrics.Rows = %d, want %d", trial, join.Rows, joinOut)
		}

		_, drows, droot, err := c.QueryAnalyzeCtx(context.Background(), Distinct(Scan("t")))
		if err != nil {
			t.Fatal(err)
		}
		if droot.Rows != int64(len(distinct)) || len(drows) != len(distinct) {
			t.Fatalf("trial %d: Distinct rows = %d (metrics %d), want %d",
				trial, len(drows), droot.Rows, len(distinct))
		}
	}
}
