package engine

import (
	"math"
	"slices"
	"sort"

	"dbcc/internal/xrand"
)

// Memory-bounded kernel variants: Grace-style partitioned hash join,
// partitioned group-by/DISTINCT fold, and external merge sort. Each
// segment task estimates the working set of the in-memory kernel first
// and runs it unchanged when it fits the task's share of the statement
// budget; otherwise the spilling variant partitions its input into the
// statement's spill file (see spill.go), processes the partitions one at
// a time, and recurses with a fresh hash salt on partitions that still
// exceed the share.
//
// Every spilling variant is bit-identical to its in-memory kernel: rows
// carry a hidden original-row-index column through the partitions,
// and the final output is re-ordered by it —
//
//   - grace join tags both sides, emits each match as its hidden
//     (probeIdx, buildIdx) pair alone (buildIdx −1 for the padded rows of
//     a left outer join) and sorts the pairs, reproducing the in-memory
//     kernel's match lists exactly — probe order, ascending build row
//     within one probe row — over which the same pipeline then runs;
//   - the fold adds a MIN aggregate over the hidden row index, giving
//     each group its first-occurrence position, and sorts group rows by
//     it — first-seen order, as groupChunk and distinctChunk produce;
//   - external sort splits the chunk into consecutive-range runs (ties
//     within a run break by original position, the earlier run wins
//     across runs), so the merge is exactly the stable in-memory sort.

// joinSegment joins one segment's co-located chunks under the memory
// budget — in-memory when the build side and its hash table fit the
// segment share, Grace-partitioned otherwise — and runs the pipeline pl
// over the matches, gathering the columns reads names (joinMatches.pipe).
// r[fi] gains the rows filter fi of pl kept and r[len(pl.filters)] the
// matches.
func (e *execEnv) joinSegment(seg int, left, right *Chunk, p JoinPlan, pl pipeline, reads joinReads, r []int64) (*Chunk, error) {
	lk, rk, kind := p.LeftKey, p.RightKey, p.Kind
	// The in-memory kernel's working set is the hash table plus its match
	// lists, which it keeps within whatever the table leaves of the share —
	// at least the one pair the estimate reserves.
	w := joinTableBytes(right.length)
	est := chunkFootprint(right) + w + matchPairBytes
	if !e.shouldSpill(est) {
		limit := math.MaxInt
		if share := e.segShare(); share > 0 {
			limit = int((share - w) / matchPairBytes)
		}
		e.acct.charge(w)
		defer e.acct.release(w)
		return joinChunks(left, right, lk, rk, kind, limit, &e.acct, pl, reads, r, e.scratch)
	}
	lw, rw := len(left.cols), len(right.cols)
	wideRow := int64(max(lw, rw)+1) * 8
	fan := spillFanout(est, e.segShare(), wideRow)
	var ioSeq int64

	// Pass 0: partition both sides by the join key, tagging every row with
	// its original index. NULL probe keys can never match but must still
	// surface for outer joins, so they ride in partition 0; NULL build keys
	// are dropped, as the in-memory kernel never inserts them.
	lps := e.newPartitionSet(seg, fan, lw+1, &ioSeq)
	salt := spillSalt(0)
	lkeys, lnulls := left.cols[lk], left.nulls[lk]
	for r := 0; r < left.length; r++ {
		p := 0
		if !lnulls.get(r) {
			p = int(xrand.Mix64(uint64(lkeys[r])^salt) % uint64(fan))
		}
		if err := lps.appendRowExtra(p, left, r, int64(r)); err != nil {
			lps.abort()
			return nil, err
		}
	}
	lparts, err := lps.finish()
	if err != nil {
		return nil, err
	}
	rps := e.newPartitionSet(seg, fan, rw+1, &ioSeq)
	rkeys, rnulls := right.cols[rk], right.nulls[rk]
	for r := 0; r < right.length; r++ {
		if rnulls.get(r) {
			continue
		}
		p := int(xrand.Mix64(uint64(rkeys[r])^salt) % uint64(fan))
		if err := rps.appendRowExtra(p, right, r, int64(r)); err != nil {
			rps.abort()
			return nil, err
		}
	}
	rparts, err := rps.finish()
	if err != nil {
		return nil, err
	}

	var pairs []uint64
	for p := 0; p < fan; p++ {
		if err := e.graceJoinPart(seg, &pairs, lparts[p], rparts[p],
			lw, rw, lk, rk, kind, int64(right.length), 1, &ioSeq); err != nil {
			return nil, err
		}
	}
	// Sorting the packed index pairs restores the in-memory kernel's match
	// order; the pipeline then runs over the same match lists it does.
	slices.Sort(pairs)
	lp, rp := getI32(len(pairs)), getI32(len(pairs))
	defer func() { putI32(lp); putI32(rp) }()
	li, ri := (*lp)[:len(pairs)], (*rp)[:len(pairs)]
	for i, pr := range pairs {
		li[i], ri[i] = int32(pr>>32), int32(uint32(pr))-1
	}
	return joinMatches{left, right, li, ri, kind == LeftOuterJoin}.pipe(pl, reads, r, nil)
}

// matchPair packs the hidden (probe row, build row) index pair of a grace
// join match so that packed pairs sort in the in-memory kernel's match
// order: probe row first, then ascending build row. The build row of an
// unmatched outer row's pad is -1.
func matchPair(probe, build int64) uint64 {
	return uint64(probe)<<32 | uint64(build+1)
}

// graceJoinPart processes one partition pair: re-partitioned with a fresh
// salt while the build side still exceeds the share (and is still
// shrinking — identical keys cannot be split further), joined in memory
// otherwise. Matches are appended to out as packed index pairs
// (matchPair).
func (e *execEnv) graceJoinPart(seg int, out *[]uint64,
	lpart, rpart *spillPart, lw, rw, lk, rk int, kind JoinKind,
	parentBuildRows int64, depth int, ioSeq *int64) error {
	buildRows := rpart.rows
	est := buildRows*int64(rw+1)*8 + joinTableBytes(int(buildRows))
	if e.shouldSpill(est) && depth < maxSpillDepth && buildRows < parentBuildRows {
		fan := spillFanout(est, e.segShare(), int64(max(lw, rw)+1)*8)
		salt := spillSalt(depth)
		lsub, err := e.repartitionByKey(seg, lpart, lw+1, lk, fan, salt, true, ioSeq)
		if err != nil {
			return err
		}
		rsub, err := e.repartitionByKey(seg, rpart, rw+1, rk, fan, salt, false, ioSeq)
		if err != nil {
			return err
		}
		for p := 0; p < fan; p++ {
			if err := e.graceJoinPart(seg, out, lsub[p], rsub[p],
				lw, rw, lk, rk, kind, buildRows, depth+1, ioSeq); err != nil {
				return err
			}
		}
		return nil
	}

	if !e.shouldSpill(est) {
		build, err := e.readPartition(rpart, rw+1)
		if err != nil {
			return err
		}
		charge := chunkFootprint(build) + joinTableBytes(build.length)
		e.acct.charge(charge)
		defer e.acct.release(charge)
		jt := newJoinTable(build.length)
		defer jt.release()
		bkeys := build.cols[rk]
		for i := build.length - 1; i >= 0; i-- {
			jt.insert(bkeys[i], int32(i))
		}
		return e.eachFrame(lpart.exts, func(pf *Chunk) error {
			probeAgainst(out, pf, build, jt, lw, rw, lk, kind, nil, 0)
			return nil
		})
	}
	// The partition still exceeds the share but cannot shrink (one
	// extremely hot key, or the depth cap): no amount of re-partitioning
	// helps, so fall back to a block nested-loop hash join — the build
	// side streams through in blocks that fit the share, the probe side is
	// re-scanned once per block. Matches are index pairs, so the final
	// sort restores the exact in-memory order regardless of block
	// boundaries.
	return e.blockJoinPart(lpart, rpart, out, lw, rw, lk, rk, kind)
}

// probeAgainst streams one probe frame through a build chunk's hash
// table, appending its matches to out as packed index pairs. When matched
// is nil (single-table grace mode) unmatched probe rows of a left outer
// join are padded immediately; when non-nil (block nested-loop mode,
// where a row unmatched by this block may match a later one) it records
// which probe ordinals found a match instead, and the caller emits the
// pads in a final pass. ordBase is the ordinal of the frame's first row.
func probeAgainst(out *[]uint64, pf, build *Chunk, jt *joinTable, lw, rw, lk int,
	kind JoinKind, matched []uint64, ordBase int64) {
	pkeys, pnulls := pf.cols[lk], pf.nulls[lk]
	pidx := pf.cols[lw]
	bidx := build.cols[rw]
	for r := 0; r < pf.length; r++ {
		m := int32(-1)
		if !pnulls.get(r) {
			m = jt.lookup(pkeys[r])
		}
		if m < 0 {
			if matched == nil && kind == LeftOuterJoin {
				*out = append(*out, matchPair(pidx[r], -1))
			}
			continue
		}
		if matched != nil {
			ord := ordBase + int64(r)
			matched[ord/64] |= 1 << (uint(ord) % 64)
		}
		for ; m >= 0; m = jt.next[m] {
			*out = append(*out, matchPair(pidx[r], bidx[m]))
		}
	}
}

// blockJoinPart joins one unsplittable partition pair within the share:
// the build partition streams through in fixed-size blocks, each block's
// hash table probes the whole probe partition, and (for outer joins) a
// bitmap over probe ordinals collects matches so pad rows are emitted
// exactly once in a final pass.
func (e *execEnv) blockJoinPart(lpart, rpart *spillPart, out *[]uint64,
	lw, rw, lk, rk int, kind JoinKind) error {
	share := e.segShare()
	rowB := int64(rw+1) * 8
	// A build row costs its chunk bytes plus at most ~52 hash-table bytes
	// (nextPow2(2n) 12-byte slots + 4-byte chain links); size blocks so
	// chunk + table fit half the share.
	blockRows := int(share / (2 * (rowB + 52)))
	if blockRows < 1 {
		blockRows = 1
	}
	charge := int64(blockRows)*rowB + joinTableBytes(blockRows)
	var matched []uint64
	if kind == LeftOuterJoin {
		matched = make([]uint64, (lpart.rows+63)/64)
		charge += int64(len(matched)) * 8
	}
	e.acct.charge(charge)
	defer e.acct.release(charge)

	probeAll := func(block *Chunk) error {
		jt := newJoinTable(block.length)
		defer jt.release()
		bkeys := block.cols[rk]
		for i := block.length - 1; i >= 0; i-- {
			jt.insert(bkeys[i], int32(i))
		}
		var ord int64
		return e.eachFrame(lpart.exts, func(pf *Chunk) error {
			probeAgainst(out, pf, block, jt, lw, rw, lk, kind, matched, ord)
			ord += int64(pf.length)
			return nil
		})
	}

	bb := newChunkBuilder(rw + 1)
	err := e.eachFrame(rpart.exts, func(bf *Chunk) error {
		for r := 0; r < bf.length; r++ {
			for c := 0; c <= rw; c++ {
				bb.appendCol(c, bf.cols[c][r], bf.nulls[c].get(r))
			}
			bb.n++
			if bb.n >= blockRows {
				if err := probeAll(bb.finish()); err != nil {
					return err
				}
				bb = newChunkBuilder(rw + 1)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bb.n > 0 {
		if err := probeAll(bb.finish()); err != nil {
			return err
		}
	}

	if kind != LeftOuterJoin {
		return nil
	}
	// Pad pass: probe rows no block matched (NULL keys included).
	var ord int64
	return e.eachFrame(lpart.exts, func(pf *Chunk) error {
		for r := 0; r < pf.length; r++ {
			o := ord + int64(r)
			if matched[o/64]&(1<<(uint(o)%64)) == 0 {
				*out = append(*out, matchPair(pf.cols[lw][r], -1))
			}
		}
		ord += int64(pf.length)
		return nil
	})
}

// repartitionByKey streams a partition into fanout sub-partitions under a
// new salt. Rows already carry their hidden index column; the key column
// position is unchanged. keepNull routes NULL-key rows to sub-partition 0
// (probe sides); build partitions never hold NULL keys.
func (e *execEnv) repartitionByKey(seg int, part *spillPart, ncols, key, fanout int,
	salt uint64, keepNull bool, ioSeq *int64) ([]*spillPart, error) {
	ps := e.newPartitionSet(seg, fanout, ncols, ioSeq)
	err := e.eachFrame(part.exts, func(fr *Chunk) error {
		keys, nulls := fr.cols[key], fr.nulls[key]
		for r := 0; r < fr.length; r++ {
			p := 0
			if nulls.get(r) {
				if !keepNull {
					continue
				}
			} else {
				p = int(xrand.Mix64(uint64(keys[r])^salt) % uint64(fanout))
			}
			if err := ps.appendRow(p, fr, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		ps.abort()
		return nil, err
	}
	return ps.finish()
}

// foldSegment folds one segment's partial-layout chunk (group-by) or
// whole rows (DISTINCT, nk = all columns, no aggregates) under the memory
// budget: the in-memory kernel when input plus hash table fit the share,
// the partitioned fold otherwise.
func (e *execEnv) foldSegment(seg int, in *Chunk, nk int, aggs []Agg, distinct bool) (*Chunk, error) {
	est := chunkFootprint(in) + groupTableBytes(in.length)
	if !e.shouldSpill(est) {
		w := groupTableBytes(in.length)
		e.acct.charge(w)
		defer e.acct.release(w)
		if distinct {
			return distinctChunk(in, e.scratch), nil
		}
		return groupChunk(in, nk, aggs, e.scratch), nil
	}
	ncols := len(in.cols)
	fan := spillFanout(est, e.segShare(), int64(ncols+1)*8)
	var ioSeq int64

	// Pass 0: partition by key hash, tagging rows with their original
	// index; all rows of one group land in one partition.
	ps := e.newPartitionSet(seg, fan, ncols+1, &ioSeq)
	salt := spillSalt(0)
	hp := u64Scratch.get(hashBlock)
	defer u64Scratch.put(hp)
	for r0 := 0; r0 < in.length; r0 += hashBlock {
		for i, h := range hashRows(in, 0, nk, r0, *hp) {
			r := r0 + i
			p := int(xrand.Mix64(h^salt) % uint64(fan))
			if err := ps.appendRowExtra(p, in, r, int64(r)); err != nil {
				ps.abort()
				return nil, err
			}
		}
	}
	parts, err := ps.finish()
	if err != nil {
		return nil, err
	}

	// Per-partition streaming fold, with an extra MIN over the hidden
	// index recording each group's first occurrence.
	foldAggs := make([]Agg, 0, len(aggs)+1)
	foldAggs = append(foldAggs, aggs...)
	foldAggs = append(foldAggs, Agg{Op: AggMin})
	var outs []*Chunk
	for p := 0; p < fan; p++ {
		if err := e.foldPartition(seg, parts[p], nk, foldAggs,
			int64(in.length), 1, &ioSeq, &outs); err != nil {
			return nil, err
		}
	}
	all := concatChunks(nil, ncols+1, outs)

	// Restore first-seen order via the hidden first-occurrence column.
	hidden := all.cols[ncols]
	idx := make([]int32, all.length)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool { return hidden[idx[i]] < hidden[idx[j]] })
	return stripCols(gatherChunk(nil, all, idx), ncols), nil
}

// foldPartition folds one partition into group rows, recursing with
// a fresh salt while the partition exceeds the share and still shrinks.
// Folded chunks (keys, aggregates, hidden first-occurrence index) are
// appended to outs.
func (e *execEnv) foldPartition(seg int, part *spillPart,
	nk int, foldAggs []Agg, parentRows int64, depth int, ioSeq *int64, outs *[]*Chunk) error {
	fcols := nk + len(foldAggs) // frame layout: keys, agg partials, hidden index
	est := part.rows*int64(fcols)*8 + groupTableBytes(int(part.rows))
	if e.shouldSpill(est) && depth < maxSpillDepth && part.rows < parentRows {
		fan := spillFanout(est, e.segShare(), int64(fcols)*8)
		salt := spillSalt(depth)
		ps := e.newPartitionSet(seg, fan, fcols, ioSeq)
		hp := u64Scratch.get(hashBlock)
		defer u64Scratch.put(hp)
		err := e.eachFrame(part.exts, func(fr *Chunk) error {
			for r0 := 0; r0 < fr.length; r0 += hashBlock {
				for i, h := range hashRows(fr, 0, nk, r0, *hp) {
					p := int(xrand.Mix64(h^salt) % uint64(fan))
					if err := ps.appendRow(p, fr, r0+i); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			ps.abort()
			return err
		}
		sub, err := ps.finish()
		if err != nil {
			return err
		}
		for p := 0; p < fan; p++ {
			if err := e.foldPartition(seg, sub[p], nk, foldAggs,
				part.rows, depth+1, ioSeq, outs); err != nil {
				return err
			}
		}
		return nil
	}

	// Base fold: frames stream through the accumulator one at a time, so
	// the working set is the group rows, not the input rows — a partition
	// that could not shrink (one hot key) folds into few groups and stays
	// within the share even though its row count does not. The charge
	// tracks the accumulator as it grows.
	b := newChunkBuilder(fcols)
	t := newGroupTable(64)
	defer t.release()
	var charged int64
	defer func() { e.acct.release(charged) }()
	err := e.eachFrame(part.exts, func(fr *Chunk) error {
		foldChunkInto(b, t, fr, nk, foldAggs)
		if c := int64(b.n)*int64(fcols)*8 + groupTableBytes(b.n); c > charged {
			e.acct.charge(c - charged)
			charged = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	*outs = append(*outs, b.finish())
	return nil
}

// stripCols returns a view of ch keeping only the first k columns (the
// hidden spill bookkeeping columns sit at the end).
func stripCols(ch *Chunk, k int) *Chunk {
	return &Chunk{length: ch.length, cols: ch.cols[:k], nulls: ch.nulls[:k]}
}

// sortSegment sorts one segment's chunk under the memory budget. It
// returns the chunk the coordinator merge should read and the sorted
// index vector into it: the input chunk plus a sorted index in memory, or
// a materialised externally-sorted chunk with the identity index when the
// working set exceeds the share.
func (e *execEnv) sortSegment(seg int, ch *Chunk, keys []SortKey) (*Chunk, []int32, error) {
	n := ch.length
	idxBytes := int64(4 * n)
	if !e.shouldSpill(chunkFootprint(ch) + idxBytes) {
		e.acct.charge(idxBytes)
		defer e.acct.release(idxBytes)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := int(idx[i]), int(idx[j])
			if cmp := compareChunkRows(keys, ch, a, ch, b); cmp != 0 {
				return cmp < 0
			}
			return a < b
		})
		return ch, idx, nil
	}

	ncols := len(ch.cols)
	share := e.segShare()
	rowB := int64(ncols) * 8
	if rowB <= 0 {
		rowB = 8
	}
	runRows := int(share / (2 * rowB))
	if runRows < 64 {
		runRows = 64
	}
	// The merge holds one buffered frame (one row at the floor) per run, so
	// cap the run count at what half the share can buffer and grow the runs
	// instead — the external-sort analogue of the fan-out cap.
	maxRuns := int(share / (2 * rowB))
	if maxRuns < 2 {
		maxRuns = 2
	}
	if minRun := (n + maxRuns - 1) / maxRuns; runRows < minRun {
		runRows = minRun
	}
	if runRows > n {
		runRows = n
	}
	nRuns := (n + runRows - 1) / runRows
	frameRows := int(share / (2 * int64(nRuns) * rowB))
	if frameRows < 1 {
		frameRows = 1
	}
	if frameRows > 512 {
		frameRows = 512
	}
	var ioSeq int64

	// Run formation: consecutive ranges sorted with the original position
	// as tie-break, streamed out in frames. Consecutive ranges keep global
	// original-position order across runs, which makes the lowest-run
	// tie-break below reproduce the stable in-memory sort.
	bufCharge := int64(frameRows)*rowB + int64(runRows)*4
	e.acct.charge(bufCharge)
	var scratch []byte
	var runBytes int64
	runs := make([][]extent, nRuns)
	for run := 0; run < nRuns; run++ {
		lo := run * runRows
		hi := lo + runRows
		if hi > n {
			hi = n
		}
		idx := make([]int32, hi-lo)
		for i := range idx {
			idx[i] = int32(lo + i)
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := int(idx[i]), int(idx[j])
			if cmp := compareChunkRows(keys, ch, a, ch, b); cmp != 0 {
				return cmp < 0
			}
			return a < b
		})
		for off := 0; off < len(idx); off += frameRows {
			end := off + frameRows
			if end > len(idx) {
				end = len(idx)
			}
			fr := gatherChunk(nil, ch, idx[off:end])
			ext, err := e.writeSpillFrame(seg, &scratch, fr, &ioSeq)
			if err != nil {
				e.acct.release(bufCharge)
				return nil, nil, err
			}
			runs[run] = append(runs[run], ext)
			runBytes += ext.n
		}
	}
	e.acct.release(bufCharge)
	e.noteSpill(runBytes, int64(nRuns), 1)

	// K-way merge of the runs, one buffered frame per run: cur[i] is run
	// i's current frame (nil once the run is exhausted), pos[i] the row
	// within it, and runs[i] the extents not yet read.
	mergeCharge := int64(nRuns) * int64(frameRows) * rowB
	e.acct.charge(mergeCharge)
	defer e.acct.release(mergeCharge)
	cur := make([]*Chunk, nRuns)
	pos := make([]int, nRuns)
	var buf []byte
	advance := func(i int) (err error) {
		cur[i], pos[i] = nil, 0
		if len(runs[i]) > 0 {
			cur[i], err = e.readFrame(runs[i][0], &buf)
			runs[i] = runs[i][1:]
		}
		return err
	}
	for i := range runs {
		if err := advance(i); err != nil {
			return nil, nil, err
		}
	}
	out := newChunk(ncols, n)
	for k := 0; k < n; k++ {
		best := -1
		for i := 0; i < nRuns; i++ {
			if cur[i] == nil {
				continue
			}
			if best < 0 || compareChunkRows(keys, cur[i], pos[i], cur[best], pos[best]) < 0 {
				best = i
			}
		}
		bc, br := cur[best], pos[best]
		for col := 0; col < ncols; col++ {
			if bc.nulls[col].get(br) {
				out.ensureNulls(col).set(k)
			} else {
				out.cols[col][k] = bc.cols[col][br]
			}
		}
		pos[best]++
		if pos[best] >= bc.length {
			if err := advance(best); err != nil {
				return nil, nil, err
			}
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return out, idx, nil
}
