package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

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
	ch, err := joinChunks(left, right, lk, rk, kind, limit, acct, pipeline{}, reads, make([]int64, 1))
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
		chunkEqualRows(t, groupChunk(rowsToChunk(partial, 4), 1, aggs), want)
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
		chunkEqualRows(t, distinctChunk(rowsToChunk(rows, 3)), want)
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
	out := groupChunk(rowsToChunk(rows, 3), 1, aggs)
	for c, nb := range out.nulls {
		if nb != nil {
			t.Fatalf("no NULL input: column %d of the output has a null bitmap %v", c, nb)
		}
	}

	// Group 1 starts NULL and then gets a value; group 2 stays NULL.
	rows = []Row{{I(1), NullDatum, I(1)}, {I(1), I(5), I(1)}, {I(2), NullDatum, I(1)}, {I(3), I(3), I(1)}}
	out = groupChunk(rowsToChunk(rows, 3), 1, aggs)
	chunkEqualRows(t, out, []Row{{I(1), I(5), I(2)}, {I(2), NullDatum, I(1)}, {I(3), I(3), I(1)}})
	rows[2][1] = I(9)
	out = groupChunk(rowsToChunk(rows, 3), 1, aggs)
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
		ch, err := joinChunks(left, right, 0, 0, kind, math.MaxInt, new(memAcct), pl, reads, make([]int64, 2))
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
			groupChunk(grouped, 1, aggs),
			distinctChunk(dup),
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
			groupChunk(partial(chunkToRows(ch)), 1, aggs)
		case 2:
			distinctChunk(ch)
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
			out, moved, err := c.newExecEnv(context.Background()).shuffle(in, key)
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

// referencePartition is the row-at-a-time placement the radix partition
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

// TestRadixPartitionMatchesReference differential-tests the radix
// partition kernel against the row-at-a-time reference across random
// seeds, segment counts, null patterns (none, mixed, all-NULL columns) and
// skewed destinations. Beyond row equality it asserts the pooled backing is bit-identical to a
// fresh chunk: every NULL slot's payload must read zero, since pooled
// memory arrives stale.
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

		fp := getI64(ncols * ch.length)
		parts := radixPartitionChunk(ch, dests, nparts, *fp)
		want := referencePartition(ch, dests, nparts)
		for d := 0; d < nparts; d++ {
			chunkEqualRows(t, parts[d], want[d])
			for c := 0; c < ncols; c++ {
				for r := 0; r < parts[d].length; r++ {
					if parts[d].nulls[c].get(r) && parts[d].cols[c][r] != 0 {
						t.Fatalf("trial %d: part %d col %d row %d: NULL slot has stale payload %d",
							trial, d, c, r, parts[d].cols[c][r])
					}
				}
			}
		}
		putI64(fp)
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
