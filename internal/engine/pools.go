package engine

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Pooled scratch memory. Shuffle destination maps, selection vectors and
// the hash tables' slot arrays are needed once per segment task and go
// back to their pool when the kernel returns, a shuffle's per-source
// permutations when the shuffle returns; the column memory of every
// chunk one operator hands another within a statement comes from the
// same int64 pool through the statement's arena and goes back when the
// statement ends, and the headers of those chunks, the part arrays and
// the routing tables come from the arena's slabs, which the next
// statement reuses. Recycling all of them keeps the steady-state
// allocation rate of a query round independent of its row count, and a
// small statement's close to what it keeps.
//
// The ownership rule: a table or a result holds only fresh memory, and
// everything else belongs to the statement, headers included. The
// allocation sites whose output outlives the statement — the values of
// the CREATE TABLE AS placement shuffle, the chunk INSERT … SELECT
// stores, DELETE's kept rows, the rows a Query returns — allocate fresh,
// and CreateTableAsCtx publishes every chunk the statement made under a
// fresh header, copying its columns out of the arena when one points into
// it (arena.keep).
//
// A pool stores *[]T boxes and hands the box itself to the caller: taking
// and returning the same pointer is what keeps the round-trip
// allocation-free (a by-value Put would box a fresh slice header on every
// call). Callers that append must write the grown slice back through the
// pointer before returning it, so the enlarged capacity is what gets
// recycled.

// scratchPool recycles slices of one element type, in one sync.Pool per
// power-of-two capacity class: every box in class k holds at least 2^k
// values, so get(n) takes from the class of n rounded up and whatever it
// finds there fits. One pool of mixed sizes would hand a segment-sized
// request a batch-sized box, which it would drop for a fresh one.
type scratchPool[T int32 | int64 | uint64] struct{ classes [64]sync.Pool }

// minScratchClass is the smallest box's class: 1024 values.
const minScratchClass = 10

// scratchClass is the class get(n) takes from: log2(n) rounded up.
func scratchClass(n int) int { return max(bits.Len(uint(max(n, 1)-1)), minScratchClass) }

// get returns a pooled box whose slice has length n and UNDEFINED
// contents: the caller must store to every slot it later reads.
func (s *scratchPool[T]) get(n int) *[]T {
	k := scratchClass(n)
	p, _ := s.classes[k].Get().(*[]T)
	if p == nil {
		p = new([]T)
		*p = make([]T, 1<<k)
	}
	*p = (*p)[:n]
	return p
}

// put returns a box to the class its capacity fills: log2 rounded down.
func (s *scratchPool[T]) put(p *[]T) {
	if k := bits.Len(uint(cap(*p))) - 1; k >= minScratchClass {
		s.classes[k].Put(p)
	}
}

var (
	i32Scratch scratchPool[int32]  // row-index, destination and permutation vectors
	i64Scratch scratchPool[int64]  // join keys, arena columns
	u64Scratch scratchPool[uint64] // row-hash blocks, group-table hash caches
)

// getI32 returns a pooled scratch box whose slice is zero-length with
// capacity >= n. Pass the same pointer back to putI32 when done.
func getI32(n int) *[]int32 {
	p := i32Scratch.get(n)
	*p = (*p)[:0]
	return p
}

// putI32 recycles a scratch box obtained from getI32.
func putI32(p *[]int32) { i32Scratch.put(p) }

// getI64 returns a pooled scratch box whose slice has length n and
// UNDEFINED contents. Its users store to every slot before reading it —
// the gathers that fill arena chunks write each slot once, a NULL's with
// zero — so clearing here would be a second pass over the hot data for
// nothing. Pass the same pointer back to putI64 when done; chunks backed
// by the slice must not be referenced after that.
func getI64(n int) *[]int64 { return i64Scratch.get(n) }

// putI64 recycles a scratch box obtained from getI64.
func putI64(p *[]int64) { i64Scratch.put(p) }

// arena is a statement's scratch: everything its operators hand one
// another. The column memory of their chunks — shuffle destinations, UNION
// ALL and multi-chunk scan concatenations, join-pipeline outputs, group-by
// partial and folded chunks, DISTINCT survivors and computed vectors —
// comes in boxes from i64Scratch, taken on first use, so a statement that
// takes nothing allocates nothing for it. The headers — every Chunk with
// its column and bitmap slices, the relations' per-segment part arrays,
// the pipeline's vector arrays, the column UDF's argument arrays and the
// shuffle's routing tables — are carved from slabs the arena keeps. Segment
// tasks take from it concurrently.
//
// release runs once the statement's segment tasks have all drained
// (execEnv.close): it returns the boxes to the pool and clears every slab
// entry the statement used, so no pointer outlives the statement, but
// keeps the slabs themselves, and the execution environment that holds
// the arena goes on the cluster's free list for the next statement. A
// small statement's headers therefore cost no allocation once its
// cluster has run one like it.
//
// A nil *arena hands out fresh memory: kernels called outside a statement
// and the allocation sites whose output outlives the statement pass nil.
// Null bitmaps are always fresh.
type arena struct {
	mu    sync.Mutex
	boxes []*[]int64

	chunks slab[Chunk]
	cols   slab[[]int64]
	nulls  slab[nullBitmap]
	parts  slab[*Chunk]
	vecs   slab[colVec]
	args   slab[UDFArg]
	bounds slab[int32]
	routes slab[routing]
	perms  slab[*[]int32]
}

// slab carves short-lived slices of T from blocks it keeps. Each block
// doubles the one before it, so a statement's headers settle into a few
// blocks that every later statement of its size reuses.
type slab[T any] struct {
	blocks [][]T // each at its full length
	cur    int   // the block being carved
	off    int   // values handed out of blocks[cur]
}

// minSlabBlock is the length of a slab's first block.
const minSlabBlock = 64

// slabGuard slice headers (24 bytes each) span two 64-byte cache lines,
// what an adjacent-line prefetcher pulls in together.
const slabGuard = 6

// take returns n zero values. A request that does not fit the rest of the
// current block moves on to the next one, or to a new one at least n long.
func (s *slab[T]) take(n int) []T {
	for s.cur < len(s.blocks) && s.off+n > len(s.blocks[s.cur]) {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.blocks) {
		size := minSlabBlock
		if k := len(s.blocks); k > 0 {
			size = 2 * len(s.blocks[k-1])
		}
		s.blocks = append(s.blocks, make([]T, max(size, n)))
	}
	out := s.blocks[s.cur][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// reset zeroes every value take handed out and keeps the blocks.
func (s *slab[T]) reset() {
	for i := 0; i < s.cur; i++ {
		clear(s.blocks[i])
	}
	if s.cur < len(s.blocks) {
		clear(s.blocks[s.cur][:s.off])
	}
	s.cur, s.off = 0, 0
}

// alloc returns n values with UNDEFINED contents: the caller must store to
// every slot it later reads. A nil arena returns fresh, zeroed memory.
func (a *arena) alloc(n int) []int64 {
	if a == nil || n == 0 {
		return make([]int64, n)
	}
	p := getI64(n)
	a.mu.Lock()
	a.boxes = append(a.boxes, p)
	a.mu.Unlock()
	return (*p)[:n:n]
}

// zeroed is alloc with every value zero.
func (a *arena) zeroed(n int) []int64 {
	s := a.alloc(n)
	if a != nil {
		clear(s)
	}
	return s
}

// header returns a chunk of n rows without NULLs whose ncols columns are
// nil, for the caller to point at its values.
func (a *arena) header(ncols, n int) *Chunk {
	if a == nil {
		return &Chunk{length: n, cols: make([][]int64, ncols), nulls: make([]nullBitmap, ncols)}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ch := &a.chunks.take(1)[0]
	*ch = Chunk{length: n, cols: a.cols.take(ncols), nulls: a.nulls.take(ncols)}
	return ch
}

// chunk returns a chunk of ncols columns and exactly n rows, no NULLs,
// whose values share one backing taken from the arena, UNDEFINED; kernels
// that fill every slot (concatenations, gathers) build their output in it.
// A nil arena gives newChunk's fresh, zeroed chunk.
func (a *arena) chunk(ncols, n int) *Chunk { return a.chunkIn(a.alloc(ncols*n), ncols, n) }

// chunkIn is chunk with its header taken from a and its values carved
// from flat, ncols·n of them: the shuffle's destinations, whose values
// come from the arena its caller names.
func (a *arena) chunkIn(flat []int64, ncols, n int) *Chunk {
	ch := a.header(ncols, n)
	if n > 0 {
		for c := range ch.cols {
			ch.cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
		}
	}
	return ch
}

// builder returns a chunk builder whose ncols columns hold up to n rows
// in one backing taken from the arena: a group-by fold emits at most one
// row per input row, so its columns never grow. It finishes into a
// header taken from the arena too. The builder rewrites its column and
// bitmap slice headers once per row while other segments' tasks read and
// write the slab entries around them, so those headers sit between guards
// of slabGuard entries and share no cache line with their neighbours.
func (a *arena) builder(ncols, n int) *chunkBuilder {
	b := &chunkBuilder{out: a.header(0, 0)}
	if a == nil {
		b.cols, b.nulls = make([][]int64, ncols), make([]nullBitmap, ncols)
	} else {
		lo, hi := slabGuard, slabGuard+ncols
		a.mu.Lock()
		b.cols = a.cols.take(hi + slabGuard)[lo:hi:hi]
		b.nulls = a.nulls.take(hi + slabGuard)[lo:hi:hi]
		a.mu.Unlock()
	}
	flat := a.alloc(ncols * n)
	for c := range b.cols {
		b.cols[c] = flat[c*n : c*n : (c+1)*n]
	}
	return b
}

// partArray returns a relation's part array: n nil chunk pointers.
func (a *arena) partArray(n int) []*Chunk {
	if a == nil {
		return make([]*Chunk, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.parts.take(n)
}

// vecArray returns n zero vectors, for an expression list to evaluate into.
func (a *arena) vecArray(n int) []colVec {
	if a == nil {
		return make([]colVec, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.vecs.take(n)
}

// argArray returns n zero arguments of a column UDF call.
func (a *arena) argArray(n int) []UDFArg {
	if a == nil {
		return make([]UDFArg, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.args.take(n)
}

// routingTables returns a shuffle's routing tables over segs segments: one
// bounds backing for every source, each source's routing, and its
// permutation's pooled box. a must not be nil.
func (a *arena) routingTables(segs int) ([]int32, []routing, []*[]int32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bounds.take(segs * (segs + 1)), a.routes.take(segs), a.perms.take(segs)
}

// owns reports whether ch's header was taken from the arena and whether
// any of its columns points into the arena's memory.
func (a *arena) owns(ch *Chunk) (header, values bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := uintptr(unsafe.Pointer(ch))
	for _, b := range a.chunks.blocks {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		if p >= base && p < base+uintptr(len(b))*unsafe.Sizeof(Chunk{}) {
			header = true
		}
	}
	for _, col := range ch.cols {
		if len(col) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(col)))
		for _, b := range a.boxes {
			base := uintptr(unsafe.Pointer(unsafe.SliceData(*b)))
			if p >= base && p < base+uintptr(cap(*b))*unsafe.Sizeof(int64(0)) {
				return header, true
			}
		}
	}
	return header, false
}

// keep returns parts as a table keeps them, nil for an empty chunk. A
// chunk the statement made gets a fresh header, and fresh columns where a
// column points into the arena; a stored chunk a scan handed through is
// kept as it is. The fresh headers and their column and bitmap slices
// each share one backing.
func (a *arena) keep(parts []*Chunk, ncols int) []*Chunk {
	out := make([]*Chunk, len(parts))
	var (
		hdrs  []Chunk
		cols  [][]int64
		nulls []nullBitmap
	)
	for seg, ch := range parts {
		if ch.length == 0 {
			continue
		}
		header, values := a.owns(ch)
		if !header && !values {
			out[seg] = ch
			continue
		}
		if hdrs == nil {
			hdrs = make([]Chunk, len(parts))
			cols = make([][]int64, len(parts)*ncols)
			nulls = make([]nullBitmap, len(parts)*ncols)
		}
		k := &hdrs[seg]
		*k = Chunk{length: ch.length, cols: cols[seg*ncols : (seg+1)*ncols : (seg+1)*ncols],
			nulls: nulls[seg*ncols : (seg+1)*ncols : (seg+1)*ncols]}
		if values {
			flat := make([]int64, ncols*ch.length)
			for c := range k.cols {
				k.cols[c] = flat[c*ch.length : (c+1)*ch.length : (c+1)*ch.length]
			}
			copyChunkInto(k, ch, 0)
		} else {
			copy(k.cols, ch.cols)
			copy(k.nulls, ch.nulls)
		}
		out[seg] = k
	}
	return out
}

// release returns every box the arena handed out to the pool, exactly
// once, and clears its slabs. Nothing may read or write the arena's
// chunks afterwards.
func (a *arena) release() {
	for _, p := range a.boxes {
		putI64(p)
	}
	clear(a.boxes)
	a.boxes = a.boxes[:0]
	a.chunks.reset()
	a.cols.reset()
	a.nulls.reset()
	a.parts.reset()
	a.vecs.reset()
	a.args.reset()
	a.bounds.reset()
	a.routes.reset()
	a.perms.reset()
}
