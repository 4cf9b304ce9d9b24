package engine

import "sync/atomic"

// Memory-bounded execution: the per-statement working-memory accountant.
//
// The paper runs on HAWQ, whose executor bounds each operator's working
// memory (the PostgreSQL work_mem model): hash tables, sort state and
// partition buffers must fit the budget, and operators that would exceed
// it switch to spilling variants — Grace hash join, hybrid hash
// aggregation, external merge sort. This engine reproduces that model.
//
// Options.MemoryBudget is the per-statement budget in bytes. It bounds
// kernel working sets — join/group hash tables, sort index vectors,
// in-memory spill partitions and the chunk buffers of the spill files —
// not the operator input and output relations themselves (which the
// engine, like any MPP executor pipelining between motions, materialises
// per segment regardless). Each segment task may use at most
// budget/segments bytes of working memory; a kernel whose estimated
// working set exceeds that share runs its spilling variant instead (see
// spill_kernels.go). Because at most Segments tasks of one statement run
// concurrently and each stays within its share, the statement's total
// accounted working memory stays within the budget — the invariant the
// acceptance test pins.
//
// memAcct is the per-statement ledger: charge/release track the live
// working-set gauge and its peak, and the spill counters accumulate the
// statement's spill activity. At statement end execEnv.close folds the
// ledger into the cluster-wide Stats (PeakWorkBytes, SpilledBytes,
// SpillPartitions, SpillPasses).

// memAcct tracks one statement's accounted working memory and spill
// activity. All fields are atomics: segment tasks charge concurrently.
type memAcct struct {
	used atomic.Int64 // live accounted working-set bytes
	peak atomic.Int64 // maximum of used over the statement

	spilledBytes atomic.Int64 // bytes written to the spill file
	spillParts   atomic.Int64 // spill partitions/runs written
	spillPasses  atomic.Int64 // partitioning / run-formation passes
}

// charge adds n bytes to the working-set gauge and maintains the peak.
func (a *memAcct) charge(n int64) {
	if n <= 0 {
		return
	}
	u := a.used.Add(n)
	for {
		p := a.peak.Load()
		if u <= p || a.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

// release subtracts n bytes charged earlier.
func (a *memAcct) release(n int64) {
	if n > 0 {
		a.used.Add(-n)
	}
}

// segShare returns the per-segment-task slice of the statement budget, or
// 0 when execution is unbounded.
func (e *execEnv) segShare() int64 {
	b := e.c.memBudget
	if b <= 0 {
		return 0
	}
	share := b / int64(e.c.segments)
	if share < 1 {
		share = 1
	}
	return share
}

// shouldSpill reports whether a kernel with the given estimated working
// set must take its spilling path: only when a budget is configured and
// the estimate exceeds this task's share of it.
func (e *execEnv) shouldSpill(est int64) bool {
	share := e.segShare()
	return share > 0 && est > share
}

// chunkFootprint is the modelled heap footprint of a chunk's column
// storage: 8 bytes per value plus the null-bitmap words.
func chunkFootprint(ch *Chunk) int64 {
	if ch == nil {
		return 0
	}
	n := int64(ch.length) * int64(len(ch.cols)) * DatumSize
	for _, nb := range ch.nulls {
		n += int64(len(nb)) * 8
	}
	return n
}

// joinTableBytes is the modelled size of a joinTable over n build rows:
// slots hold an 8-byte key and a 4-byte chain head at load factor <= 1/2,
// plus a 4-byte chain link per row.
func joinTableBytes(n int) int64 {
	slots := int64(nextPow2(2 * n))
	return slots*(8+4) + int64(n)*4
}

// groupTableBytes is the modelled worst-case size of a groupTable that
// admits up to n ids: 4-byte slots at load factor <= 1/2 (doubling growth
// can transiently hold old+new arrays, hence the extra factor) plus the
// 8-byte hash cache per id. The in-memory folds now size their table for
// n up front and never grow it; only the spill fold's accumulator grows.
// The model is kept as it was all the same, so that no spill decision
// moves with the table's sizing.
func groupTableBytes(n int) int64 {
	slots := int64(nextPow2(2 * (n + 1)))
	return slots*4*2 + int64(n)*8 + 64
}
