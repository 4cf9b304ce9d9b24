package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"dbcc/internal/xrand"
)

// Microbenchmarks proving the columnar kernels against the row-at-a-time
// code they replaced. Each benchmark has a "kernel" variant exercising the
// shipped implementation and a "rows" variant replicating the map-based
// inner loop of the row engine (preserved here, in test code only, as the
// baseline). Run with:
//
//	go test ./internal/engine -bench BenchmarkKernel -benchmem -count=1
//
// The allocs/op column is the headline: the kernels amortize one
// allocation per column per chunk where the row engine paid one (or more)
// per row.

// benchRows builds n two-column rows with ~10% NULLs and a key space of
// n/8 values (long join chains, populous groups).
func benchRows(n int) []Row {
	rng := xrand.New(101)
	keys := uint64(n/8) + 1
	rows := make([]Row, n)
	for i := range rows {
		var a, b Datum
		if rng.Uint64n(10) == 0 {
			a = NullDatum
		} else {
			a = I(int64(rng.Uint64n(keys)))
		}
		if rng.Uint64n(10) == 0 {
			b = NullDatum
		} else {
			b = I(int64(rng.Uint64n(1 << 20)))
		}
		rows[i] = Row{a, b}
	}
	return rows
}

// oneSegmentKeys returns the first n non-negative keys that a shuffle over
// segs segments (a power of two) places on segment seg, i.e. whose
// Mix64 hash has seg in its low bits. They are what one segment's hash
// tables see after a redistribution.
func oneSegmentKeys(n, seg, segs int) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		if int(xrand.Mix64(uint64(k))&uint64(segs-1)) == seg {
			keys = append(keys, k)
		}
	}
	return keys
}

// benchShuffledRows builds n two-column rows as one segment of eight holds
// them after a shuffle: no NULL keys (the shuffle sends those to segment
// 0), keys drawn from n/2 values — after a map-side combine a key reaches
// its segment from only a few sources, so it repeats about twice — and
// ~10 % NULL values. With onSegment set, key k is replaced by the k-th key
// the shuffle places on segment 3, so every key shares its low three hash
// bits with the others; otherwise keys are 0..n/2-1, whose hashes spread
// over all bits.
func benchShuffledRows(n int, onSegment bool) []Row {
	rng := xrand.New(107)
	var keys []int64
	if onSegment {
		keys = oneSegmentKeys(n/2, 3, 8)
	}
	rows := make([]Row, n)
	for i := range rows {
		k := int64(rng.Uint64n(uint64(n / 2)))
		if onSegment {
			k = keys[k]
		}
		v := I(int64(rng.Uint64n(1 << 20)))
		if rng.Uint64n(10) == 0 {
			v = NullDatum
		}
		rows[i] = Row{I(k), v}
	}
	return rows
}

// benchShuffledDistinctRows is benchShuffledRows(n, false) as DISTINCT's
// whole-row shuffle places it: with onSegment set, the value of each row
// (its key where the value is NULL, so the NULLs stay) is stepped until
// the whole-row hash lands on segment 3. Equal rows step equally, so
// duplicates stay duplicates.
func benchShuffledDistinctRows(n int, onSegment bool) []Row {
	rows := benchShuffledRows(n, false)
	if !onSegment {
		return rows
	}
	for _, r := range rows {
		c := 1
		if r[1].Null {
			c = 0 // keys are never NULL
		}
		for referenceRowHash(r)&7 != 3 {
			r[c] = I(r[c].Int + 1)
		}
	}
	return rows
}

// shuffledCase names the subcase of benchShuffledRows(n, onSegment).
func shuffledCase(onSegment bool) string {
	if onSegment {
		return "segment"
	}
	return "uniform"
}

// rowJoin replicates the row engine's per-segment hash join (map build +
// probe with per-row output allocation).
func rowJoin(left, right []Row, lk, rk int, kind JoinKind) []Row {
	build := make(map[int64][]Row)
	for _, row := range right {
		k := row[rk]
		if k.Null {
			continue
		}
		build[k.Int] = append(build[k.Int], row)
	}
	var rows []Row
	rw := 2
	for _, lrow := range left {
		k := lrow[lk]
		var matches []Row
		if !k.Null {
			matches = build[k.Int]
		}
		if len(matches) == 0 {
			if kind == LeftOuterJoin {
				nr := make(Row, len(lrow)+rw)
				copy(nr, lrow)
				for i := 0; i < rw; i++ {
					nr[len(lrow)+i] = NullDatum
				}
				rows = append(rows, nr)
			}
			continue
		}
		for _, rrow := range matches {
			nr := make(Row, 0, len(lrow)+rw)
			nr = append(nr, lrow...)
			nr = append(nr, rrow...)
			rows = append(rows, nr)
		}
	}
	return rows
}

// rowGroupMin replicates the row engine's per-segment group-by fold
// (encoded string keys into a map of aggregate states) for min(x) by k.
func rowGroupMin(partial []Row) []Row {
	groups := make(map[string]Row)
	var order []string
	var buf []byte
	for _, row := range partial {
		buf = encodeRow(buf[:0], row[:1])
		g, ok := groups[string(buf)]
		if !ok {
			g = make(Row, 2)
			copy(g, row[:1])
			g[1] = NullDatum
			groups[string(buf)] = g
			order = append(order, string(buf))
		}
		v := row[1]
		if !v.Null && (g[1].Null || v.Int < g[1].Int) {
			g[1] = v
		}
	}
	rows := make([]Row, 0, len(groups))
	for _, k := range order {
		rows = append(rows, groups[k])
	}
	return rows
}

var sinkChunk *Chunk
var sinkRows []Row

// The "uniform" and "segment" subcases of the join, group-by and distinct
// benchmarks run the kernel on what one segment holds after a shuffle
// (benchShuffledRows, benchShuffledDistinctRows), once with keys whose
// hashes spread over all bits and once with keys the shuffle placed on
// one segment of eight. The CI gate holds segment within 15 % of uniform:
// a hash table that took its slots from the hash bits the placement used
// would reach only an eighth of its slots on a segment.

func BenchmarkKernelJoinProbe(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		left, right := benchRows(n), benchRows(n/4)
		lch, rch := rowsToChunk(left, 2), rowsToChunk(right, 2)
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			reads, r := pipeline{}.reads(4), make([]int64, 1)
			for i := 0; i < b.N; i++ {
				sinkChunk, _ = joinChunks(lch, rch, 0, 0, InnerJoin, math.MaxInt, new(memAcct), pipeline{}, reads, r, nil)
			}
		})
		b.Run(fmt.Sprintf("rows/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRows = rowJoin(left, right, 0, 0, InnerJoin)
			}
		})
	}
	for _, seg := range []bool{false, true} {
		const n = 1 << 16
		lch := rowsToChunk(benchShuffledRows(n, seg), 2)
		rch := rowsToChunk(benchShuffledRows(n/4, seg), 2)
		b.Run(fmt.Sprintf("%s/n=%d", shuffledCase(seg), n), func(b *testing.B) {
			b.ReportAllocs()
			reads, r := pipeline{}.reads(4), make([]int64, 1)
			for i := 0; i < b.N; i++ {
				sinkChunk, _ = joinChunks(lch, rch, 0, 0, InnerJoin, math.MaxInt, new(memAcct), pipeline{}, reads, r, nil)
			}
		})
	}
}

// BenchmarkKernelJoinPipeline measures late materialisation on the shape
// of the contraction round's second join: edges g(v1, v2) joined with the
// representatives r(v, rep) on g.v2 = r.v, filtered by g.v1 != r.rep
// (a third of the matches fail it) and projected to (g.v1, r.rep).
// "fused" runs the filter and projection inside the join kernel over its
// match lists; "unfused" gathers every column of every match and then
// runs the same pipeline over that chunk. CI gates fused/unfused and
// pins fused's allocations (internal/bench/testdata/microbench_baseline.json).
func BenchmarkKernelJoinPipeline(b *testing.B) {
	const n = 1 << 16
	rng := xrand.New(43)
	reps := make([]Row, n/4)
	for i := range reps {
		reps[i] = Row{I(int64(i)), I(int64(rng.Uint64n(n / 8)))}
	}
	edges := make([]Row, n)
	for i := range edges {
		v2 := rng.Uint64n(n / 4)
		v1 := I(int64(rng.Uint64n(n / 8)))
		if rng.Uint64n(3) == 0 {
			v1 = reps[v2][1] // the edge's endpoints already share a representative
		}
		edges[i] = Row{v1, I(int64(v2))}
	}
	lch, rch := rowsToChunk(edges, 2), rowsToChunk(reps, 2)
	pl, _ := splitPipeline(Project(Filter(JoinPlan{}, Bin(OpNe, Col(0), Col(3))),
		ProjCol{Expr: Col(0), Name: "v1"}, ProjCol{Expr: Col(3), Name: "v2"}))
	reads, full := pl.reads(4), pipeline{}.reads(4)
	r := make([]int64, 2)
	b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkChunk, _ = joinChunks(lch, rch, 1, 0, InnerJoin, math.MaxInt, new(memAcct), pl, reads, r, nil)
		}
	})
	b.Run(fmt.Sprintf("unfused/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			joined, _ := joinChunks(lch, rch, 1, 0, InnerJoin, math.MaxInt, new(memAcct), pipeline{}, full, r, nil)
			sinkChunk, _ = pl.run(joined, r, nil)
		}
	})
}

func BenchmarkKernelGroupByMin(b *testing.B) {
	aggs := []Agg{{Op: AggMin, Arg: Col(1), Name: "mn"}}
	for _, n := range []int{1 << 12, 1 << 16} {
		rows := benchRows(n)
		ch := rowsToChunk(rows, 2)
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkChunk = groupChunk(ch, 1, aggs, nil)
			}
		})
		b.Run(fmt.Sprintf("rows/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRows = rowGroupMin(rows)
			}
		})
	}
	for _, seg := range []bool{false, true} {
		const n = 1 << 16
		ch := rowsToChunk(benchShuffledRows(n, seg), 2)
		b.Run(fmt.Sprintf("%s/n=%d", shuffledCase(seg), n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkChunk = groupChunk(ch, 1, aggs, nil)
			}
		})
	}
}

func BenchmarkKernelDistinct(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		rows := benchRows(n)
		ch := rowsToChunk(rows, 2)
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkChunk = distinctChunk(ch, nil)
			}
		})
		b.Run(fmt.Sprintf("rows/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seen := make(map[string]struct{}, len(rows))
				var keep []Row
				var buf []byte
				for _, row := range rows {
					buf = encodeRow(buf[:0], row)
					if _, dup := seen[string(buf)]; dup {
						continue
					}
					seen[string(buf)] = struct{}{}
					keep = append(keep, row)
				}
				sinkRows = keep
			}
		})
	}
	for _, seg := range []bool{false, true} {
		const n = 1 << 16
		ch := rowsToChunk(benchShuffledDistinctRows(n, seg), 2)
		b.Run(fmt.Sprintf("%s/n=%d", shuffledCase(seg), n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkChunk = distinctChunk(ch, nil)
			}
		})
	}
}

func BenchmarkKernelShuffle(b *testing.B) {
	for _, n := range []int{1 << 16} {
		rows := benchRows(n)
		c := NewCluster(Options{Segments: 8, Workers: 1})
		segRows := make([][]Row, 8)
		for i, r := range rows {
			segRows[i%8] = append(segRows[i%8], r)
		}
		in := &relation{schema: Schema{"k", "x"}, parts: make([]*Chunk, 8), distKey: NoDistKey}
		for s := range in.parts {
			in.parts[s] = rowsToChunk(segRows[s], 2)
		}
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, _ := c.newExecEnv(context.Background()).redistribute(in, 0, nil)
				sinkChunk = out.parts[0]
			}
		})
		b.Run(fmt.Sprintf("rows/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The row engine's shuffle: append-grown [src][dst] buckets,
				// then per-destination concatenation.
				buckets := make([][][]Row, 8)
				for src := 0; src < 8; src++ {
					bk := make([][]Row, 8)
					for _, row := range segRows[src] {
						d := 0
						if !row[0].Null {
							d = int(xrand.Mix64(uint64(row[0].Int)) % 8)
						}
						bk[d] = append(bk[d], row)
					}
					buckets[src] = bk
				}
				for dst := 0; dst < 8; dst++ {
					var out []Row
					for src := 0; src < 8; src++ {
						out = append(out, buckets[src][dst]...)
					}
					sinkRows = out
				}
			}
		})
	}
}

// countingPartitionChunk preserves the replaced counting shuffle's
// placement loop — count per destination, allocate exact-capacity chunks,
// then scatter row-at-a-time across all columns — as the benchmark
// baseline for the partition kernel (test code only, like the row
// variants above).
func countingPartitionChunk(ch *Chunk, dests []int32, nparts int) []*Chunk {
	ncols := len(ch.cols)
	counts := make([]int32, nparts)
	for r := 0; r < ch.length; r++ {
		counts[dests[r]]++
	}
	b := make([]*Chunk, nparts)
	for d := range b {
		b[d] = newChunk(ncols, int(counts[d]))
	}
	cursors := make([]int32, nparts)
	for r := 0; r < ch.length; r++ {
		d := dests[r]
		k := int(cursors[d])
		cursors[d]++
		dst := b[d]
		for col := 0; col < ncols; col++ {
			if ch.nulls[col].get(r) {
				dst.ensureNulls(col).set(k)
			} else {
				dst.cols[col][k] = ch.cols[col][r]
			}
		}
	}
	return b
}

// BenchmarkKernelRadixPartition measures the shuffle hot loop: the
// partition kernel as one source of execEnv.shuffle runs it (a counting
// sort of row indices into a pooled permutation, then one column-at-a-time
// gather per destination into the statement's arena) against the counting
// (row-at-a-time, allocating) placement it replaced, on the wide all-valid
// chunks RC's contraction rounds shuffle and on narrow chunks with NULLs.
func BenchmarkKernelRadixPartition(b *testing.B) {
	run := func(name string, ncols int, withNulls bool) {
		const n = 1 << 16
		rng := xrand.New(109)
		rows := make([]Row, n)
		for i := range rows {
			row := make(Row, ncols)
			for c := range row {
				if withNulls && rng.Uint64n(10) == 0 {
					row[c] = NullDatum
				} else {
					row[c] = I(int64(rng.Uint64n(1 << 20)))
				}
			}
			rows[i] = row
		}
		ch := rowsToChunk(rows, ncols)
		dests := make([]int32, n)
		for r := 0; r < n; r++ {
			if ch.nulls[0].get(r) {
				dests[r] = 0
			} else {
				dests[r] = int32(xrand.Mix64(uint64(ch.cols[0][r])) % 8)
			}
		}
		b.Run(fmt.Sprintf("kernel/%s/n=%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// One source of execEnv.shuffle: the permutation from the
				// pool, each destination's chunk from the statement's arena.
				a := new(arena)
				pp := getI32(n)
				rts := []routing{{bounds: make([]int32, 9), perm: (*pp)[:n]}}
				partitionRows(dests, rts[0])
				for d := 0; d < 8; d++ {
					part := a.chunk(ncols, len(rts[0].rows(d)))
					gatherRows(part, []*Chunk{ch}, rts, d)
					sinkChunk = part
				}
				putI32(pp)
				a.release()
			}
		})
		b.Run(fmt.Sprintf("counting/%s/n=%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parts := countingPartitionChunk(ch, dests, 8)
				sinkChunk = parts[0]
			}
		})
	}
	run("wide", 4, false)
	run("nulls", 2, true)
}

// BenchmarkKernelRCRound measures one round-shaped query of the paper's
// randomized-contraction algorithm — join the edge list with the current
// representative mapping, take min per vertex — end to end through the
// engine, the unit of work the columnar kernels were built to speed up.
func BenchmarkKernelRCRound(b *testing.B) {
	const nv, ne = 1 << 14, 1 << 16
	rng := xrand.New(103)
	c := NewCluster(Options{Segments: 8})
	edges := make([]Row, ne)
	for i := range edges {
		edges[i] = Row{I(int64(rng.Uint64n(nv))), I(int64(rng.Uint64n(nv)))}
	}
	reps := make([]Row, nv)
	for i := range reps {
		reps[i] = Row{I(int64(i)), I(int64(rng.Uint64n(nv)))}
	}
	mustCreateBench(b, c, "e", Schema{"src", "dst"}, 0, edges)
	mustCreateBench(b, c, "r", Schema{"v", "rep"}, 0, reps)
	p := GroupBy(
		JoinPlan{Left: Scan("e"), Right: Scan("r"), LeftKey: 0, RightKey: 0, Kind: InnerJoin},
		[]int{1}, // group by dst
		Agg{Op: AggMin, Arg: Col(3), Name: "newrep"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Query(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStatementTP runs Two-Phase's large-star statement
// (tpSQLLarge in internal/ccalg) as one CREATE TABLE AS over 65,536 edges:
// UNION ALL of both orientations, a join with the per-vertex minimum table,
// two filters, a projection and DISTINCT, placed by its first column.
// Every chunk but the placed output comes from the statement's arena, so
// B/op stays near the bytes of the table the statement writes; the CI gate
// pins bytes_per_op.
func BenchmarkKernelStatementTP(b *testing.B) {
	const nv, ne = 1 << 14, 1 << 16
	rng := xrand.New(109)
	c := NewCluster(Options{Segments: 8})
	edges := make([]Row, ne)
	for i := range edges {
		v, w := int64(rng.Uint64n(nv)), int64(rng.Uint64n(nv))
		edges[i] = Row{I(max(v, w)), I(min(v, w))}
	}
	mins := make([]Row, nv)
	for v := range mins {
		mins[v] = Row{I(int64(v)), I(int64(rng.Uint64n(uint64(v) + 1)))}
	}
	mustCreateBench(b, c, "e", Schema{"v", "w"}, 0, edges)
	mustCreateBench(b, c, "m", Schema{"v", "m"}, 0, mins)
	// select distinct s.w as v, m.m as w
	// from (select v, w from e union all select w, v from e) as s, m
	// where s.v = m.v and s.w > s.v and s.w != m.m distributed by (v)
	sym := UnionAll(Project(Scan("e"), ProjCol{Expr: Col(0), Name: "v"}, ProjCol{Expr: Col(1), Name: "w"}),
		Project(Scan("e"), ProjCol{Expr: Col(1), Name: "v"}, ProjCol{Expr: Col(0), Name: "w"}))
	join := JoinPlan{Left: sym, Right: Scan("m"), LeftKey: 0, RightKey: 0, Kind: InnerJoin}
	p := Distinct(Project(Filter(Filter(join, Bin(OpGt, Col(1), Col(0))), Bin(OpNe, Col(1), Col(3))),
		ProjCol{Expr: Col(1), Name: "v"}, ProjCol{Expr: Col(3), Name: "w"}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CreateTableAs("out", p, 0); err != nil {
			b.Fatal(err)
		}
		if err := c.DropTable("out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSmallStatement runs one contraction statement of an RC
// round (rcSQLContract2 in internal/ccalg: join the edges with the
// round's representatives, drop self-loops, DISTINCT, placed by the first
// column) as one CREATE TABLE AS over a 512-edge graph. The data is a few
// kilobytes, so the statement's fixed cost is the work: every operator's
// segment tasks run inline, and the CI gate pins allocs_per_op.
func BenchmarkKernelSmallStatement(b *testing.B) {
	const nv, ne = 256, 512
	rng := xrand.New(113)
	c := NewCluster(Options{Segments: 8})
	edges := make([]Row, ne)
	for i := range edges {
		edges[i] = Row{I(int64(rng.Uint64n(nv))), I(int64(rng.Uint64n(nv)))}
	}
	reps := make([]Row, nv)
	for v := range reps {
		reps[v] = Row{I(int64(v)), I(int64(rng.Uint64n(uint64(v) + 1)))}
	}
	mustCreateBench(b, c, "g", Schema{"v1", "v2"}, 0, edges)
	mustCreateBench(b, c, "r", Schema{"v", "rep"}, 0, reps)
	// select distinct g2.v1 as v1, r2.rep as v2 from g as g2, r as r2
	// where g2.v2 = r2.v and g2.v1 != r2.rep distributed by (v1)
	join := JoinPlan{Left: Scan("g"), Right: Scan("r"), LeftKey: 1, RightKey: 0, Kind: InnerJoin}
	p := Distinct(Project(Filter(join, Bin(OpNe, Col(0), Col(3))),
		ProjCol{Expr: Col(0), Name: "v1"}, ProjCol{Expr: Col(3), Name: "v2"}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CreateTableAs("out", p, 0); err != nil {
			b.Fatal(err)
		}
		if err := c.DropTable("out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelScanCTAS measures CreateTableAs(Scan(t)) on t's own
// distribution key, a table → table round trip with no shuffle. Scan
// hands out the stored chunks and CreateTableAs publishes them by
// reference, so the work is O(segments), not O(rows): the CI gate holds
// allocs/op to the same absolute figure at both sizes.
func BenchmarkKernelScanCTAS(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		c := NewCluster(Options{Segments: 8})
		mustCreateBench(b, c, "t", Schema{"k", "x"}, 0, benchRows(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.CreateTableAs("out", Scan("t"), 0); err != nil {
					b.Fatal(err)
				}
				if err := c.DropTable("out"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelInsertAppend measures a 256-row InsertRows into a table of
// 64k rows against one of 1k rows. An insert appends one chunk per touched
// segment instead of copying the segment, so both cost about the same; the
// CI gate holds the large/small ns/op ratio under 2.
func BenchmarkKernelInsertAppend(b *testing.B) {
	const batch, restart = 256, 16
	rows := benchRows(batch)
	for _, n := range []int{1 << 10, 1 << 16} {
		c := NewCluster(Options{Segments: 8})
		mustCreateBench(b, c, "base", Schema{"k", "x"}, 0, benchRows(n))
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%restart == 0 {
					// Restart from the base table so the table stays near its
					// nominal size; the same-key copy shares the base's chunks.
					b.StopTimer()
					c.DropTable("t") // absent on the first pass
					if _, err := c.CreateTableAs("t", Scan("base"), 0); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := c.InsertRows("t", rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustCreateBench(b *testing.B, c *Cluster, name string, schema Schema, distKey int, rows []Row) {
	b.Helper()
	if _, err := c.CreateTable(name, schema, distKey); err != nil {
		b.Fatal(err)
	}
	if err := c.InsertRows(name, rows); err != nil {
		b.Fatal(err)
	}
}

// TestScratchPoolRoundTripAllocFree pins the allocation cost of the
// pooled scratch-buffer round-trip at zero. The pool hands out *[]int32
// boxes precisely so Get and Put recycle one allocation; the historical
// bug this guards against was a by-value putI32([]int32) that boxed a
// fresh pointer on every Put, costing one heap allocation per kernel
// task and silently defeating the pool.
func TestScratchPoolRoundTripAllocFree(t *testing.T) {
	// Warm the pool so the measurement sees the steady state.
	warm := getI32(4096)
	putI32(warm)
	allocs := testing.AllocsPerRun(1000, func() {
		p := getI32(4096)
		s := *p
		s = append(s, 1, 2, 3)
		*p = s
		putI32(p)
	})
	// Allow a little noise: a GC cycle during the run may clear the pool
	// and force one refill.
	if allocs > 0.1 {
		t.Fatalf("scratch pool round-trip costs %.2f allocs/op, want ~0", allocs)
	}
}

// TestScanOfMultiChunkSegmentsAllocatesLittle pins that Scan concatenates
// a segment's stored chunks into the statement's arena. A table written by
// 500 InsertRows batches of 256 rows keeps several chunks per segment, so
// every scan of it concatenates the whole table. The count below, SQL's
// select count(*) as n from t where v1 = 5 and v2 = 7, must allocate in
// the steady state (median of 5 runs after warm-up) under a quarter of
// the table's bytes: the concatenations, the filter's survivors and the
// aggregate's chunks all come back from the pool.
func TestScanOfMultiChunkSegmentsAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random, so pooled memory is not reused")
	}
	c := NewCluster(Options{Segments: 8})
	if _, err := c.CreateTable("t", Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(44)
	for b := 0; b < 500; b++ {
		rows := make([]Row, 256)
		for i := range rows {
			rows[i] = Row{I(int64(rng.Uint64n(64))), I(int64(rng.Uint64n(64)))}
		}
		if err := c.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := c.Table("t")
	multi := false
	for _, list := range tab.snapshotParts() {
		multi = multi || len(list) > 1
	}
	if !multi {
		t.Fatal("no segment holds more than one stored chunk; the scan concatenates nothing")
	}
	count := Project(GroupBy(Filter(Filter(Scan("t"), Bin(OpEq, Col(0), Const(5))), Bin(OpEq, Col(1), Const(7))),
		nil, Agg{Op: AggCount, Name: "n"}), ProjCol{Expr: Col(0), Name: "n"})
	run := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err := c.Query(count); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := make([]uint64, 5)
	for i := range allocs {
		allocs[i] = run()
	}
	slices.Sort(allocs)
	if limit := uint64(tab.Bytes() / 4); allocs[2] >= limit {
		t.Fatalf("a count over a multi-chunk table allocates %d bytes (median of %v), want < %d, a quarter of the table's %d bytes",
			allocs[2], allocs, limit, tab.Bytes())
	}
}

// BenchmarkKernelScratchPool measures the pooled round-trip the filter,
// distinct and shuffle kernels perform once per segment task; allocs/op
// must report 0.
func BenchmarkKernelScratchPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := getI32(1024)
		s := *p
		for j := 0; j < 16; j++ {
			s = append(s, int32(j))
		}
		*p = s
		putI32(p)
	}
}
