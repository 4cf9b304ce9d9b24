package engine

import (
	"time"
)

// Parallel distributed sort. The engine's historical sort gathered every
// row onto the coordinator and ran one big sort.SliceStable there — the
// only operator whose work was entirely serial. The columnar sort instead
// sorts each segment's chunk locally, in parallel on the worker pool, and
// the coordinator only performs a k-way merge of the pre-sorted runs. The
// output is bit-identical to the old implementation: local sorts break
// ties by original row position and the merge breaks ties by segment
// index, which together reproduce a stable sort of the concatenation of
// the segments in segment order.

// compareChunkRows orders row a of ca against row b of cb under the sort
// keys: NULLs first ascending, descending keys flipped.
func compareChunkRows(keys []SortKey, ca *Chunk, a int, cb *Chunk, b int) int {
	for _, k := range keys {
		an, bn := ca.nulls[k.Col].get(a), cb.nulls[k.Col].get(b)
		var cmp int
		switch {
		case an && bn:
			cmp = 0
		case an:
			cmp = -1
		case bn:
			cmp = 1
		default:
			av, bv := ca.cols[k.Col][a], cb.cols[k.Col][b]
			switch {
			case av < bv:
				cmp = -1
			case av > bv:
				cmp = 1
			}
		}
		if k.Desc {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp
		}
	}
	return 0
}

// execSort orders the relation by the sort keys onto segment 0, applying
// the limit if any: parallel per-segment index sorts, then a coordinator
// k-way merge of the sorted runs.
func (e *execEnv) execSort(p SortPlan, start time.Time) (*relation, *OpMetrics, error) {
	c := e.c
	in, cm, err := e.exec(p.Input)
	if err != nil {
		return nil, nil, err
	}

	// Phase 1: each segment sorts its own chunk, in parallel. Under a
	// memory budget sortSegment may run an external merge sort, returning a
	// freshly materialized sorted chunk with an identity index; otherwise
	// it index-sorts in place (original position as final tie-break, so the
	// local sort is stable either way).
	runs := make([][]int32, c.segments)
	chs := make([]*Chunk, c.segments)
	segTimes, err := e.parallelTimed(in.rows(), func(seg int) error {
		ch, idx, serr := e.sortSegment(seg, in.parts[seg], p.Keys)
		if serr != nil {
			return serr
		}
		chs[seg] = ch
		runs[seg] = idx
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: k-way merge of the sorted runs on the coordinator, ties
	// resolved by segment index. The heads array tracks each run's cursor;
	// with a handful of segments a linear minimum scan beats heap upkeep.
	total := 0
	for _, ch := range chs {
		total += ch.length
	}
	n := total
	if p.Limit >= 0 && int64(n) > p.Limit {
		n = int(p.Limit)
	}
	out := newChunk(len(in.schema), n)
	heads := make([]int, c.segments)
	for k := 0; k < n; k++ {
		best := -1
		var bestCh *Chunk
		var bestRow int
		for seg := 0; seg < c.segments; seg++ {
			if heads[seg] >= len(runs[seg]) {
				continue
			}
			ch := chs[seg]
			row := int(runs[seg][heads[seg]])
			if best < 0 || compareChunkRows(p.Keys, ch, row, bestCh, bestRow) < 0 {
				best, bestCh, bestRow = seg, ch, row
			}
		}
		heads[best]++
		for col := range out.cols {
			if bestCh.nulls[col].get(bestRow) {
				out.ensureNulls(col).set(k)
			} else {
				out.cols[col][k] = bestCh.cols[col][bestRow]
			}
		}
	}

	parts := c.newParts(len(in.schema))
	parts[0] = out
	rel := &relation{schema: in.schema, parts: parts, distKey: NoDistKey}
	return rel, e.finishOp("Sort", "", rel, []*OpMetrics{cm}, 0, segTimes, start), nil
}
