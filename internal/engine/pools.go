package engine

import "sync"

// Pooled per-task scratch buffers. Shuffle destination maps, selection
// vectors and the hash tables' slot arrays are needed once per
// segment task and discarded immediately; recycling them through a
// sync.Pool keeps the steady-state allocation rate of a query round
// independent of its row count. Buffers are returned before the owning
// kernel publishes its output, so no pooled memory ever escapes into a
// chunk.
//
// A pool stores *[]T boxes and hands the box itself to the caller: taking
// and returning the same pointer is what keeps the round-trip
// allocation-free (a by-value Put would box a fresh slice header on every
// call). Callers that append must write the grown slice back through the
// pointer before returning it, so the enlarged capacity is what gets
// recycled.

// scratchPool recycles slices of one element type.
type scratchPool[T int32 | int64 | uint64] struct{ p sync.Pool }

// get returns a pooled box whose slice has length n and UNDEFINED
// contents: the caller must store to every slot it later reads.
func (s *scratchPool[T]) get(n int) *[]T {
	p, _ := s.p.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n, max(n, 1024))
	}
	*p = (*p)[:n]
	return p
}

func (s *scratchPool[T]) put(p *[]T) { s.p.Put(p) }

var (
	i32Scratch scratchPool[int32]  // row-index, destination and slot vectors
	i64Scratch scratchPool[int64]  // shuffle bucket backings, join keys
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
// UNDEFINED contents. The radix scatter writes every slot exactly once
// (NULL slots are explicitly zeroed), so clearing here would be a second
// pass over the hot data for nothing. Pass the same pointer back to putI64
// when done; buckets backed by the slice must not be referenced after
// that.
func getI64(n int) *[]int64 { return i64Scratch.get(n) }

// putI64 recycles a scratch box obtained from getI64.
func putI64(p *[]int64) { i64Scratch.put(p) }
