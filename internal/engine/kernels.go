package engine

// Columnar execution kernels: the per-segment inner loops of the hot
// operators, operating directly on chunks and the int64-specialized hash
// tables. Each kernel is a pure function over immutable input chunks so
// it can run as a leaf task on the worker pool, be differential-tested
// against a row-at-a-time reference, and be benchmarked in isolation
// (see kernels_bench_test.go). The shuffle's partition kernel moves each
// value once: partitionRows sorts a source's row indices by destination,
// and each destination gathers its rows from every source straight into
// its output chunk (gatherRows).

import "dbcc/internal/xrand"

// segPicker maps a row hash to a segment: h % segs, computed as
// h & (segs-1) when the segment count is a power of two — the same
// placement without a 64-bit division per row.
type segPicker struct {
	segs, mask uint64
	pow2       bool
}

func newSegPicker(segs int) segPicker {
	return segPicker{segs: uint64(segs), mask: uint64(segs - 1), pow2: segs&(segs-1) == 0}
}

func (p segPicker) of(h uint64) int32 {
	if p.pow2 {
		return int32(h & p.mask)
	}
	return int32(h % p.segs)
}

// routeChunk computes dests[r], the destination segment of every row of a
// chunk: the hash of column key modulo segs (NULL keys go to segment 0), or
// of the whole row when key is NoDistKey. The common route — one key
// column without NULLs — is a single branch-free pass over that column.
func routeChunk(ch *Chunk, key, segs int, dests []int32) {
	pick := newSegPicker(segs)
	if key == NoDistKey {
		hp := u64Scratch.get(hashBlock)
		defer u64Scratch.put(hp)
		for r0 := 0; r0 < ch.length; r0 += hashBlock {
			for i, h := range hashRows(ch, 0, len(ch.cols), r0, *hp) {
				dests[r0+i] = pick.of(h)
			}
		}
		return
	}
	keys, nulls := ch.cols[key], ch.nulls[key]
	if nulls == nil {
		for r, k := range keys {
			dests[r] = pick.of(xrand.Mix64(uint64(k)))
		}
		return
	}
	for r, k := range keys {
		d := int32(0)
		if !nulls.get(r) {
			d = pick.of(xrand.Mix64(uint64(k)))
		}
		dests[r] = d
	}
}

// routing is one source's rows grouped by destination, as partitionRows
// leaves them: destination d's rows are perm[bounds[d]:bounds[d+1]], in
// source order.
type routing struct{ bounds, perm []int32 }

// rows returns the rows the source sends destination d.
func (rt routing) rows(d int) []int32 { return rt.perm[rt.bounds[d]:rt.bounds[d+1]] }

// partitionRows is phase 1 of the partition kernel behind every shuffle
// and INSERT placement: a stable counting sort of one source's row
// indices by destination. dests[r] names row r's destination; rt.bounds
// has one more entry than there are destinations and rt.perm one per
// row, their contents on entry undefined. Only indices move here — the
// values move once, when each destination gathers its rows (gatherRows).
func partitionRows(dests []int32, rt routing) {
	bounds, perm := rt.bounds, rt.perm
	clear(bounds)
	for _, d := range dests {
		bounds[d+1]++
	}
	for d := 1; d < len(bounds); d++ {
		bounds[d] += bounds[d-1]
	}
	// bounds[d] is destination d's running cursor, so after the scatter it
	// holds where d+1 starts; shifting it up one entry restores the starts.
	for r, d := range dests {
		perm[bounds[d]] = int32(r)
		bounds[d]++
	}
	copy(bounds[1:], bounds[:len(bounds)-1])
	bounds[0] = 0
}

// gatherRows is phase 2 of the partition kernel: it fills out, whose
// length is the total of the rows its sources send destination d, with
// the rows rts[s] routes from every source srcs[s] to d, source after
// source and in source order within each — the source-major,
// source-stable order of the historical counting shuffle
// (TestShuffleMatchesReference, FuzzRadixPartition). Values move
// column-at-a-time, each column's writes one sequential pass over out;
// every slot is written, a NULL's with zero, so out may be stale pooled
// memory, and out's null bitmaps are its own, so concurrent gathers into
// different chunks share nothing.
func gatherRows(out *Chunk, srcs []*Chunk, rts []routing, d int) {
	for c := range out.cols {
		off := 0
		for s, in := range srcs {
			idx := rts[s].rows(d)
			gatherInto(out, c, off, in, c, idx, false)
			off += len(idx)
		}
	}
}

// partitionChunk places one chunk's rows on nparts destinations, dests[r]
// naming row r's: destination d's chunk is fresh, exact-size and holds
// its rows in source order. It is the partition kernel's one-source form,
// the placement of an INSERT.
func partitionChunk(ch *Chunk, dests []int32, nparts int) []*Chunk {
	n := ch.length
	pp := getI32(n)
	defer putI32(pp)
	rt := routing{bounds: make([]int32, nparts+1), perm: (*pp)[:n]}
	partitionRows(dests[:n], rt)
	srcs, rts := []*Chunk{ch}, []routing{rt}
	parts := make([]*Chunk, nparts)
	for d := range parts {
		parts[d] = newChunk(len(ch.cols), len(rt.rows(d)))
		gatherRows(parts[d], srcs, rts, d)
	}
	return parts
}

// joinChunks joins one segment's co-located chunks: a hash table is built
// over the right (build) side keyed on the raw int64 join key, then the
// left (probe) side streams through it. NULL keys never match; for a left
// outer join, unmatched probe rows are emitted padded with NULLs. Build
// rows are inserted in reverse so each chain iterates in ascending build
// order — the exact match order the row engine produced.
//
// The probe writes no output values. It fills two pooled match-index lists
// — for every match, the probe row and the build row it pairs (-1 for the
// pad of an unmatched outer row) — over which the pipeline pl runs
// (joinMatches.pipe), gathering only the columns reads names. The lists
// are working memory like the hash table: they are charged to acct while
// they are live and never hold more than limit pairs. A join with more
// matches than that (a hot key under a tight budget) is emitted in several
// blocks, each probed, piped and released in turn, and the blocks'
// outputs are concatenated — same rows, same order. The output is taken
// from the statement's arena a. r[fi] gains the rows filter fi of pl kept
// and r[len(pl.filters)] the matches.
func joinChunks(left, right *Chunk, leftKey, rightKey int, kind JoinKind, limit int, acct *memAcct,
	pl pipeline, reads joinReads, r []int64, a *arena) (*Chunk, error) {
	jt := newJoinTable(right.length)
	defer jt.release()
	rkeys := right.cols[rightKey]
	rnulls := right.nulls[rightKey]
	for i := right.length - 1; i >= 0; i-- {
		if rnulls.get(i) {
			continue
		}
		jt.insert(rkeys[i], int32(i))
	}

	outer := kind == LeftOuterJoin
	lkeys := left.cols[leftKey]
	lnulls := left.nulls[leftKey]
	hint := min(left.length, limit) // exact for a key-unique build side
	lp, rp := getI32(hint), getI32(hint)
	defer func() { putI32(lp); putI32(rp) }()
	var blocks []*Chunk
	// row is the next probe row; chain, when >= 0, is where row's match
	// chain resumes after a block filled up in the middle of it. The first
	// block is piped even when it is empty, so an empty join still has the
	// pipeline's output shape.
	row, chain := 0, int32(-1)
	for {
		li, ri := (*lp)[:0], (*rp)[:0]
		for row < left.length && len(li) < limit {
			m := chain
			if m < 0 && !lnulls.get(row) {
				m = jt.lookup(lkeys[row])
			}
			if m < 0 {
				if outer {
					li = append(li, int32(row))
					ri = append(ri, -1)
				}
				row++
				continue
			}
			for ; m >= 0 && len(li) < limit; m = jt.next[m] {
				li = append(li, int32(row))
				ri = append(ri, m)
			}
			if chain = m; m < 0 {
				row++ // chain done; otherwise the block is full and the next one resumes it
			}
		}
		*lp, *rp = li, ri
		pairBytes := int64(len(li)) * matchPairBytes
		acct.charge(pairBytes)
		out, err := joinMatches{left, right, li, ri, outer}.pipe(pl, reads, r, a)
		acct.release(pairBytes)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, out)
		if row >= left.length {
			break
		}
	}
	if len(blocks) == 1 {
		return blocks[0], nil
	}
	return concatChunks(a, len(blocks[0].cols), blocks), nil
}

// joinMatches is a join's output held as match lists: output row i pairs
// probe row li[i] of left with build row ri[i] of right, or, when ri[i]
// is -1, with NULLs (an unmatched row of a left outer join).
type joinMatches struct {
	left, right *Chunk
	li, ri      []int32
	outer       bool
}

// pipe runs the pipeline over the matches and returns its output rows.
// The filters' columns are gathered at every match into pooled scratch,
// the filters compact the match lists in place, and only then are the
// projection's columns gathered, at the surviving matches; its computed
// expressions evaluate over the survivors only. The output belongs to the
// statement: the columns it passes through are gathered into one backing
// taken from the arena a, and computed columns are vectors taken from it,
// while the filters' and computed expressions' inputs go back to the pool
// before pipe returns. r[fi] gains the rows filter fi kept and
// r[len(pl.filters)] the matches.
func (m joinMatches) pipe(pl pipeline, reads joinReads, r []int64, a *arena) (*Chunk, error) {
	nf := len(pl.filters)
	r[nf] += int64(len(m.li))
	if nf > 0 {
		fp := getI64(len(reads.filter) * len(m.li))
		kp, sel, err := pl.filter(m.gather(nil, reads.filter, *fp), r, a)
		putI64(fp)
		if err == nil {
			for j, i := range sel { // sel ascends, so j <= i
				m.li[j], m.ri[j] = m.li[i], m.ri[i]
			}
			m.li, m.ri = m.li[:len(sel)], m.ri[:len(sel)]
		}
		putI32(kp)
		if err != nil {
			return nil, err
		}
	}
	ch := m.gather(nil, reads.out, a.alloc(len(reads.out)*len(m.li)))
	if pl.proj == nil {
		return ch, nil // reads.out is every column
	}
	sp := getI64(len(reads.scratch) * len(m.li))
	defer putI64(sp)
	return pl.project(m.gather(ch, reads.scratch, *sp), nil, a)
}

// gather gathers the join-output columns cols at the matches into ch, or
// into a new chunk of the join's full width when ch is nil, whose other
// columns stay nil. flat backs the gathered columns, len(cols)·len(li)
// values, each of which is written, so it may be stale pooled memory.
func (m joinMatches) gather(ch *Chunk, cols []int, flat []int64) *Chunk {
	n, lw := len(m.li), len(m.left.cols)
	if ch == nil {
		w := lw + len(m.right.cols)
		ch = &Chunk{length: n, cols: make([][]int64, w), nulls: make([]nullBitmap, w)}
	}
	for j, c := range cols {
		ch.cols[c] = flat[j*n : (j+1)*n : (j+1)*n]
		if c < lw {
			gatherInto(ch, c, 0, m.left, c, m.li, false)
		} else {
			gatherInto(ch, c, 0, m.right, c-lw, m.ri, m.outer)
		}
	}
	return ch
}

// matchPairBytes is the accounted size of one match-list entry of
// joinChunks: an int32 probe row and an int32 build row.
const matchPairBytes = 8

// groupChunk folds a partial-layout chunk (nk key columns followed by one
// column per aggregate) into one row per distinct key, preserving
// first-seen group order. Lookup is a single hash + open-addressing probe
// per input row; aggregate state mutates in place in the output builder.
// The table and the builder's columns, taken from the arena a, are sized
// for every row being its own group, so neither ever grows.
func groupChunk(in *Chunk, nk int, aggs []Agg, a *arena) *Chunk {
	b := a.builder(nk+len(aggs), in.length)
	t := newGroupTable(in.length)
	foldChunkInto(b, t, in, nk, aggs)
	t.release()
	return b.finish()
}

// foldChunkInto folds one partial-layout chunk into an accumulating group
// builder/table pair. Factoring the loop out of groupChunk lets the spill
// path (foldPartition) fold a partition's chunks frame by frame into one
// shared accumulator without materializing their concatenation.
func foldChunkInto(b *chunkBuilder, t *groupTable, in *Chunk, nk int, aggs []Agg) {
	hp := u64Scratch.get(hashBlock)
	defer u64Scratch.put(hp)
	for r0 := 0; r0 < in.length; r0 += hashBlock {
		for i, h := range hashRows(in, 0, nk, r0, *hp) {
			r := r0 + i
			id, found := t.insertOrGet(h, func(g int32) bool {
				return builderKeysEqual(b, g, in, r, nk)
			})
			if !found {
				b.appendGroupRow(in, r, nk, aggs)
				continue
			}
			for j, a := range aggs {
				c := nk + j
				b.mergeAgg(c, id, a.Op, in.cols[c][r], in.nulls[c].get(r))
			}
		}
	}
}

// builderKeysEqual compares the key columns of admitted group g against
// input row r, NULLs comparing equal (SQL GROUP BY key semantics).
func builderKeysEqual(b *chunkBuilder, g int32, in *Chunk, r, nk int) bool {
	for c := 0; c < nk; c++ {
		gn, rn := b.nulls[c].get(int(g)), in.nulls[c].get(r)
		if gn != rn {
			return false
		}
		if !gn && b.cols[c][g] != in.cols[c][r] {
			return false
		}
	}
	return true
}

// distinctChunk removes duplicate rows, keeping the first occurrence of
// each, via one whole-row hash + probe per input row. The survivors are
// gathered into an exact-capacity output chunk taken from the arena a.
// Like groupChunk, the table is sized for an input without duplicates.
func distinctChunk(in *Chunk, a *arena) *Chunk {
	ncols := len(in.cols)
	t := newGroupTable(in.length)
	kp := getI32(in.length)
	keep := *kp
	hp := u64Scratch.get(hashBlock)
	defer u64Scratch.put(hp)
	for r0 := 0; r0 < in.length; r0 += hashBlock {
		for i, h := range hashRows(in, 0, ncols, r0, *hp) {
			r := r0 + i
			_, found := t.insertOrGet(h, func(id int32) bool {
				return chunkRowsEqual(in, int(keep[id]), in, r, 0, ncols)
			})
			if !found {
				keep = append(keep, int32(r))
			}
		}
	}
	out := gatherChunk(a, in, keep)
	*kp = keep
	putI32(kp)
	t.release()
	return out
}

// buildPartialChunk converts one segment's input chunk into group-by
// partial layout: the nk key columns (aliased, not copied) followed by one
// column per aggregate holding its per-row partial value — the evaluated
// argument for MIN/MAX/SUM, and a 0/1 non-NULL indicator (or constant 1
// for count(*)) for COUNT. The aggregate columns are taken from the
// arena a.
func buildPartialChunk(in *Chunk, keys []int, aggs []Agg, a *arena) (*Chunk, error) {
	n := in.length
	vecs := make([]colVec, len(keys)+len(aggs))
	for i, k := range keys {
		vecs[i] = colVec{vals: in.cols[k], nulls: in.nulls[k]}
	}
	for i, agg := range aggs {
		switch {
		case agg.Op == AggCount && agg.Arg == nil:
			vecs[len(keys)+i] = constVec(I(1), n, a)
		case agg.Op == AggCount:
			arg, err := evalRows(agg.Arg, in, nil, a)
			if err != nil {
				return nil, err
			}
			counts := a.alloc(n)
			for j := range counts {
				counts[j] = b2i(!arg.null(j))
			}
			vecs[len(keys)+i] = colVec{vals: counts}
		default:
			arg, err := evalRows(agg.Arg, in, nil, a)
			if err != nil {
				return nil, err
			}
			vecs[len(keys)+i] = arg
		}
	}
	return chunkFromVecs(vecs, n), nil
}
