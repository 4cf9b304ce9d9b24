package engine

// This file is the columnar chunk layer of the engine. A Chunk stores rows
// in struct-of-arrays layout: each column is a flat []int64 plus an
// optional null bitmap, instead of one []Datum allocation per row. Chunks
// are both the storage and the execution format: a Table keeps one list of
// immutable chunks per segment, Scan hands them to the operators (join,
// group-by, distinct, shuffle, sort), which run as kernels directly over
// chunks, and CreateTableAs publishes its output chunks as the new table by
// reference. Every INSERT writes one chunk through appendRows, which
// places its rows with the shuffle's router and feeds the component index
// the same chunk: INSERT … SELECT concatenates its plan's output chunks,
// and InsertRows converts its rows once. DeleteRows filters the stored
// chunks in place. Rows exist only at the public edge — InsertRows
// arguments, Query and ReadAll results — where rowsToChunk and
// chunkToRows translate. The public API — Datum, Row, Table, Plan — is
// unchanged by the columnar representation.
//
// Ownership: a table or a result holds only fresh memory, and everything
// else belongs to the statement. The column values of a chunk one operator
// hands another come from the statement's arena (pools.go) and go back to
// the pool when the statement ends. A chunk a table keeps is fresh: the
// placement shuffle's output, INSERT's and DELETE's chunks, or a root
// CreateTableAs copies out of the arena. Null bitmaps are always fresh.

// nullBitmap marks the NULL rows of one chunk column, one bit per row. A
// nil bitmap means the column contains no NULLs, so the common all-valid
// case costs nothing to store or test.
type nullBitmap []uint64

// newNullBitmap returns an all-valid bitmap sized for n rows.
func newNullBitmap(n int) nullBitmap { return make(nullBitmap, (n+63)/64) }

// get reports whether row i is NULL. Safe on a nil bitmap and on bitmaps
// that were grown lazily and do not cover row i yet (builder columns only
// extend their bitmap up to the last NULL actually seen).
func (b nullBitmap) get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b nullBitmap) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b nullBitmap) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Chunk is one segment's rows in columnar struct-of-arrays layout: the
// value of column c in row r is cols[c][r], and nulls[c] (if non-nil)
// marks the rows where that column is SQL NULL. Chunks are immutable once
// an operator has produced them — like rows, they may be shared between
// concurrent readers and aliased across operators without copying.
type Chunk struct {
	length int
	cols   [][]int64
	nulls  []nullBitmap
}

// newChunk allocates a chunk of ncols columns and exactly n rows, all
// values zero and non-NULL. Kernels that know their output cardinality
// (shuffle placement, gathers, concatenations) fill it in place.
func newChunk(ncols, n int) *Chunk { return (*arena)(nil).chunk(ncols, n) }

// Len returns the number of rows.
func (ch *Chunk) Len() int { return ch.length }

// datum materialises one value as a Datum. NULL values come back exactly
// as NullDatum (payload zero), so rows converted out of a chunk compare
// equal under == to rows that never went through the columnar layer.
func (ch *Chunk) datum(c, r int) Datum {
	if ch.nulls[c].get(r) {
		return NullDatum
	}
	return Datum{Int: ch.cols[c][r]}
}

// ensureNulls returns column c's bitmap, allocating it on first NULL.
func (ch *Chunk) ensureNulls(c int) nullBitmap {
	if ch.nulls[c] == nil {
		ch.nulls[c] = newNullBitmap(ch.length)
	}
	return ch.nulls[c]
}

// rowsToChunk converts rows into a chunk — the InsertRows and Values edge.
func rowsToChunk(rows []Row, ncols int) *Chunk {
	ch := newChunk(ncols, len(rows))
	for c := 0; c < ncols; c++ {
		col := ch.cols[c]
		for r, row := range rows {
			d := row[c]
			if d.Null {
				ch.ensureNulls(c).set(r)
			} else {
				col[r] = d.Int
			}
		}
	}
	return ch
}

// chunkToRows materialises chunks of one arity as rows, in order — the
// Query and ReadAll edge. The result is allocated once at its exact size
// and all rows share one flat Datum backing array, so the conversion costs
// two allocations however many chunks it reads. No rows yield nil.
func chunkToRows(chunks ...*Chunk) []Row {
	n := 0
	for _, ch := range chunks {
		n += ch.length
	}
	if n == 0 {
		return nil
	}
	w := len(chunks[0].cols)
	flat := make([]Datum, n*w)
	rows := make([]Row, n)
	i := 0
	for _, ch := range chunks {
		for r := 0; r < ch.length; r++ {
			row := flat[i*w : (i+1)*w : (i+1)*w]
			for c := 0; c < w; c++ {
				row[c] = ch.datum(c, r)
			}
			rows[i] = row
			i++
		}
	}
	return rows
}

// appendChunk returns a stored segment's chunk list with ch appended, as a
// fresh slice: list itself is never modified, so snapshots sharing it stay
// valid. The trailing chunks are merged while the last one is at least
// half the size of the one before it, which keeps sizes roughly geometric:
// a segment holds O(log rows) chunks, and a row is copied O(log rows)
// times over the life of the table. ch must hold only fresh memory: no
// pooled box (getI64) and no statement's arena.
func appendChunk(list []*Chunk, ch *Chunk) []*Chunk {
	i, size := len(list), ch.length
	for i > 0 && 2*size >= list[i-1].length {
		i--
		size += list[i].length
	}
	out := make([]*Chunk, i+1)
	copy(out, list[:i])
	if i == len(list) {
		out[i] = ch
	} else {
		out[i] = concatChunks(nil, len(ch.cols), append(list[i:len(list):len(list)], ch))
	}
	return out
}

// gatherChunk copies the selected rows, in index order, into an
// exact-capacity chunk taken from a, or fresh when a is nil (the output
// path of Filter, Distinct and Sort).
func gatherChunk(a *arena, in *Chunk, idx []int32) *Chunk {
	out := a.chunk(len(in.cols), len(idx))
	for c := range in.cols {
		gatherInto(out, c, 0, in, c, idx, false)
	}
	return out
}

// gatherInto fills column oc of out, from row off on, with column c of in
// at the rows idx names. With pads set idx may hold -1, which yields NULL:
// the right-hand columns of an unmatched left-outer-join row. Every slot
// it covers is written, a NULL's with zero, so out's column may be backed
// by stale pooled memory.
func gatherInto(out *Chunk, oc, off int, in *Chunk, c int, idx []int32, pads bool) {
	src, dst := in.cols[c], out.cols[oc][off:off+len(idx)]
	nb := in.nulls[c]
	if nb == nil && !pads {
		for i, r := range idx {
			dst[i] = src[r]
		}
		return
	}
	for i, r := range idx {
		if r < 0 || nb.get(int(r)) {
			dst[i] = 0
			out.ensureNulls(oc).set(off + i)
		} else {
			dst[i] = src[r]
		}
	}
}

// copyChunkInto copies src into dst starting at row offset off, returning
// the offset after the copy. Values move column-at-a-time (a memcpy per
// column); null bits are only touched for columns that have any.
func copyChunkInto(dst, src *Chunk, off int) int {
	for c := range src.cols {
		copy(dst.cols[c][off:], src.cols[c])
		if src.nulls[c] != nil {
			db := dst.ensureNulls(c)
			sb := src.nulls[c]
			for r := 0; r < src.length; r++ {
				if sb.get(r) {
					db.set(off + r)
				}
			}
		}
	}
	return off + src.length
}

// concatChunks concatenates chunks of identical arity into one
// exact-capacity chunk taken from a, or fresh when a is nil (UnionAll,
// gather-to-coordinator, stored-chunk merges).
func concatChunks(a *arena, ncols int, chunks []*Chunk) *Chunk {
	total := 0
	for _, ch := range chunks {
		total += ch.length
	}
	out := a.chunk(ncols, total)
	off := 0
	for _, ch := range chunks {
		off = copyChunkInto(out, ch, off)
	}
	return out
}

// chunkBuilder grows a chunk whose output cardinality is not known up
// front (group-by states, spill partition buffers). Columns grow by amortized
// append, or fill a backing sized for every input row (arena.builder); null
// bitmaps are allocated per column on first NULL and
// zero-extended lazily, so all-valid columns never touch them. Group-by
// kernels additionally mutate aggregate state in place through mergeAgg.
type chunkBuilder struct {
	cols  [][]int64
	nulls []nullBitmap
	n     int
}

func newChunkBuilder(ncols int) *chunkBuilder {
	return &chunkBuilder{cols: make([][]int64, ncols), nulls: make([]nullBitmap, ncols)}
}

// setNull marks row i of column c NULL, growing the bitmap to cover i.
func (b *chunkBuilder) setNull(c, i int) {
	words := i>>6 + 1
	for len(b.nulls[c]) < words {
		b.nulls[c] = append(b.nulls[c], 0)
	}
	b.nulls[c].set(i)
}

// appendCol appends one value to column c (the caller advances b.n once
// per row via finishRow or the row-level helpers).
func (b *chunkBuilder) appendCol(c int, v int64, null bool) {
	i := len(b.cols[c])
	b.cols[c] = append(b.cols[c], v)
	if null {
		b.setNull(c, i)
	}
}

// appendGroupRow starts a new group from row r of a partial-layout chunk:
// the nk key columns are copied and every aggregate slot holds row r's
// partial merged into an empty (NULL) state — what mergeAgg would leave,
// without creating a null bitmap for a state that is not NULL.
func (b *chunkBuilder) appendGroupRow(in *Chunk, r, nk int, aggs []Agg) {
	for c := 0; c < nk; c++ {
		b.appendCol(c, in.cols[c][r], in.nulls[c].get(r))
	}
	for i, a := range aggs {
		c := nk + i
		v, null := in.cols[c][r], in.nulls[c].get(r)
		if a.Op == AggCount {
			null = false // COUNT adds the partial payload to an empty state
		} else if null {
			v = 0
		}
		b.appendCol(c, v, null)
	}
	b.n++
}

// mergeAgg folds value (v, vnull) into the aggregate state of group g at
// column c — the columnar counterpart of the row engine's aggState merge,
// with identical NULL semantics: MIN/MAX/SUM ignore NULL inputs, COUNT
// adds the partial count payload, and an untouched state stays NULL.
func (b *chunkBuilder) mergeAgg(c int, g int32, op AggOp, v int64, vnull bool) {
	curNull := b.nulls[c].get(int(g))
	switch op {
	case AggMin:
		if vnull {
			return
		}
		if curNull || v < b.cols[c][g] {
			b.setAgg(c, g, v)
		}
	case AggMax:
		if vnull {
			return
		}
		if curNull || v > b.cols[c][g] {
			b.setAgg(c, g, v)
		}
	case AggCount:
		if curNull {
			b.setAgg(c, g, v)
			return
		}
		b.cols[c][g] += v
	case AggSum:
		if vnull {
			return
		}
		if curNull {
			b.setAgg(c, g, v)
			return
		}
		b.cols[c][g] += v
	}
}

// setAgg stores a non-NULL aggregate state value.
func (b *chunkBuilder) setAgg(c int, g int32, v int64) {
	b.cols[c][g] = v
	if b.nulls[c] != nil {
		words := len(b.nulls[c])
		if int(g)>>6 < words {
			b.nulls[c].clear(int(g))
		}
	}
}

// finish seals the builder into a chunk. A bitmap whose bits were all
// cleared again (aggregate states that started NULL) is dropped, keeping
// the invariant that a nil bitmap is the only form of "no NULLs".
func (b *chunkBuilder) finish() *Chunk {
	for c, nb := range b.nulls {
		if nb != nil && allClear(nb) {
			b.nulls[c] = nil
		}
	}
	return &Chunk{length: b.n, cols: b.cols, nulls: b.nulls}
}

// allClear reports whether no bit of nb is set.
func allClear(nb nullBitmap) bool {
	for _, w := range nb {
		if w != 0 {
			return false
		}
	}
	return true
}
