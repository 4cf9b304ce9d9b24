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
// statement ends. Recycling both keeps the steady-state allocation rate
// of a query round independent of its row count.
//
// The ownership rule: a table or a result holds only fresh memory, and
// everything else belongs to the statement. The allocation sites whose
// output outlives the statement — the CREATE TABLE AS placement shuffle,
// the chunk INSERT … SELECT stores, DELETE's kept rows, the rows a Query
// returns — allocate fresh, and CreateTableAsCtx copies a published chunk
// out of the arena when a column points into it.
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

// arena is a statement's scratch: the column memory of the chunks its
// operators hand one another — shuffle destinations, UNION ALL and
// multi-chunk scan concatenations, join-pipeline outputs, group-by partial
// and folded chunks, DISTINCT survivors and computed vectors. It takes its
// boxes from i64Scratch on first use, so a statement that takes nothing
// allocates nothing for it, and release returns them once the statement's
// segment tasks have all drained (execEnv.close). Segment tasks take from
// it concurrently.
//
// A nil *arena hands out fresh memory: kernels called outside a statement
// and the allocation sites whose output outlives the statement pass nil.
// Null bitmaps are always fresh; only column values live in the arena.
type arena struct {
	mu    sync.Mutex
	boxes []*[]int64
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

// chunk returns a chunk of ncols columns and exactly n rows, no NULLs,
// whose values share one backing taken from the arena, UNDEFINED; kernels
// that fill every slot (concatenations, gathers) build their output in it.
// A nil arena gives newChunk's fresh, zeroed chunk.
func (a *arena) chunk(ncols, n int) *Chunk {
	ch := &Chunk{length: n, cols: make([][]int64, ncols), nulls: make([]nullBitmap, ncols)}
	if n > 0 {
		flat := a.alloc(ncols * n)
		for c := range ch.cols {
			ch.cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
		}
	}
	return ch
}

// builder returns a chunk builder whose ncols columns hold up to n rows
// in one backing taken from the arena: a group-by fold emits at most one
// row per input row, so its columns never grow.
func (a *arena) builder(ncols, n int) *chunkBuilder {
	b := &chunkBuilder{cols: make([][]int64, ncols), nulls: make([]nullBitmap, ncols)}
	flat := a.alloc(ncols * n)
	for c := range b.cols {
		b.cols[c] = flat[c*n : c*n : (c+1)*n]
	}
	return b
}

// owns reports whether any column of ch points into the arena's memory.
func (a *arena) owns(ch *Chunk) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, col := range ch.cols {
		if len(col) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(col)))
		for _, b := range a.boxes {
			base := uintptr(unsafe.Pointer(unsafe.SliceData(*b)))
			if p >= base && p < base+uintptr(cap(*b))*unsafe.Sizeof(int64(0)) {
				return true
			}
		}
	}
	return false
}

// release returns every box the arena handed out to the pool, exactly
// once. Nothing may read or write the arena's chunks afterwards.
func (a *arena) release() {
	for _, p := range a.boxes {
		putI64(p)
	}
	a.boxes = nil
}
