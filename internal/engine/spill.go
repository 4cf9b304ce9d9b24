package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Disk spilling: the file substrate of the memory-bounded kernels.
//
// A statement that spills gets one temp file (dbcc-spill-* in
// os.TempDir()), created by its first spill write and unlinked at once:
// from then on only the open descriptor keeps it, so nothing is left on
// disk once execEnv.close closes it — whether the statement succeeded,
// failed or was cancelled mid-spill. Segment tasks write frames into it
// concurrently, each reserving its byte range with an atomic add on the
// file's end offset and writing there with WriteAt. A partition, or a
// sort run, is the list of extents its frames occupy; readers ReadAt
// each extent and check its length prefix before decoding.
//
// Each frame is length-prefixed and self-describing:
//
//	u32 frameLen                      byte length of the body below
//	u32 ncols, u32 nrows              chunk shape
//	per column:
//	  u8  hasNulls                    0 = all valid, 1 = bitmap present
//	  u64 × ceil(nrows/64) bitmap     only when hasNulls = 1
//	  i64 × nrows values              little-endian
//
// decodeChunkFrame validates the header against sanity caps and the
// available byte count before allocating, so a corrupted or adversarial
// frame (the fuzz target FuzzChunkCodec) fails cleanly instead of
// panicking or over-allocating.
//
// Spill writes are a failure surface for the fault injector:
// FaultConfig.SpillFailureRate makes individual frame writes fail with
// ErrInjectedFault, deterministically per (seed, statement, operator,
// segment, attempt, write ordinal). The failure propagates out of the
// segment task and is retried by the ordinary retry loop; the retried
// attempt writes fresh extents, and the abandoned ones are dead space
// until the statement's file closes — the idempotence the engine's task
// model requires.

// Sanity caps for decoding untrusted frames.
const (
	spillMaxCols = 1 << 12
	spillMaxRows = 1 << 24
)

// errSpillCorrupt marks a malformed spill frame.
var errSpillCorrupt = errors.New("engine: corrupt spill frame")

// encodeChunkFrame appends the frame body (without the length prefix) of
// ch to buf and returns the extended slice.
func encodeChunkFrame(buf []byte, ch *Chunk) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ch.cols)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ch.length))
	words := (ch.length + 63) / 64
	for c := range ch.cols {
		nb := ch.nulls[c]
		if nb == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			// Builder bitmaps grow lazily and may be shorter than the full
			// word count; encode always writes full words, zero-padded.
			for w := 0; w < words; w++ {
				var v uint64
				if w < len(nb) {
					v = nb[w]
				}
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
		col := ch.cols[c]
		for r := 0; r < ch.length; r++ {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(col[r]))
		}
	}
	return buf
}

// decodeChunkFrame decodes one frame body from data, returning the chunk
// and the number of bytes consumed.
func decodeChunkFrame(data []byte) (*Chunk, int, error) {
	if len(data) < 8 {
		return nil, 0, errSpillCorrupt
	}
	ncols := int(binary.LittleEndian.Uint32(data[0:4]))
	nrows := int(binary.LittleEndian.Uint32(data[4:8]))
	if ncols < 0 || ncols > spillMaxCols || nrows < 0 || nrows > spillMaxRows {
		return nil, 0, errSpillCorrupt
	}
	words := (nrows + 63) / 64
	// Cheap size check before allocating: every column needs at least the
	// flag byte plus its values.
	if minLen := 8 + ncols*(1+8*nrows); len(data) < minLen {
		return nil, 0, errSpillCorrupt
	}
	ch := newChunk(ncols, nrows)
	off := 8
	for c := 0; c < ncols; c++ {
		if off >= len(data) {
			return nil, 0, errSpillCorrupt
		}
		hasNulls := data[off]
		off++
		if hasNulls > 1 {
			return nil, 0, errSpillCorrupt
		}
		if hasNulls == 1 {
			if off+8*words > len(data) {
				return nil, 0, errSpillCorrupt
			}
			nb := make(nullBitmap, words)
			for w := 0; w < words; w++ {
				nb[w] = binary.LittleEndian.Uint64(data[off : off+8])
				off += 8
			}
			// Bits beyond nrows would silently corrupt later gathers.
			if nrows%64 != 0 && words > 0 && nb[words-1]>>(uint(nrows)%64) != 0 {
				return nil, 0, errSpillCorrupt
			}
			ch.nulls[c] = nb
		}
		if off+8*nrows > len(data) {
			return nil, 0, errSpillCorrupt
		}
		col := ch.cols[c]
		for r := 0; r < nrows; r++ {
			col[r] = int64(binary.LittleEndian.Uint64(data[off : off+8]))
			off += 8
		}
	}
	return ch, off, nil
}

// Close releases the cluster's disk resources. Spill files belong to
// their statements, which close them as they finish, so a cluster holds
// nothing on disk between statements and Close has nothing to release.
// It stays so callers can close a cluster like any other resource; it is
// safe to call any number of times.
func (c *Cluster) Close() error { return nil }

// spillFile returns the statement's spill file, creating it on first use:
// a dbcc-spill-* temp file unlinked at once, so its descriptor is the only
// reference and execEnv.close returns the space to the OS with it. Safe
// for concurrent use by segment tasks.
func (e *execEnv) spillFile() (*os.File, error) {
	e.spillOnce.Do(func() {
		f, err := os.CreateTemp("", "dbcc-spill-*")
		if err != nil {
			e.spillErr = fmt.Errorf("engine: creating spill file: %w", err)
			return
		}
		if err := os.Remove(f.Name()); err != nil {
			f.Close()
			e.spillErr = fmt.Errorf("engine: unlinking spill file: %w", err)
			return
		}
		e.spill = f
	})
	return e.spill, e.spillErr
}

// noteSpill records spill activity in both the operator counters (drained
// into OpMetrics by finishOp) and the statement ledger (folded into
// cluster Stats by execEnv.close).
func (e *execEnv) noteSpill(bytes, parts, passes int64) {
	e.opSpilled.Add(bytes)
	e.opSpillParts.Add(parts)
	e.opSpillPasses.Add(passes)
	e.acct.spilledBytes.Add(bytes)
	e.acct.spillParts.Add(parts)
	e.acct.spillPasses.Add(passes)
}

// spillIOFault consults the fault injector before a physical spill write.
// The decision is a pure function of (seed, statement, operator, segment,
// attempt, ordinal), so chaos runs reproduce exactly; the returned error
// wraps ErrInjectedFault, making the whole segment-task attempt retryable.
func (e *execEnv) spillIOFault(seg int, ordinal *int64) error {
	fi := e.c.injector
	if fi == nil || fi.cfg.SpillFailureRate <= 0 {
		return nil
	}
	nth := *ordinal
	*ordinal = nth + 1
	attempt := int(e.curAttempt[seg].Load())
	if !fi.decideSpillIO(e.stmt, e.opSeq.Load(), seg, attempt, nth) {
		return nil
	}
	e.opFaults.Add(1)
	return fmt.Errorf("spill write (stmt %d seg %d attempt %d io %d): %w",
		e.stmt, seg, attempt, nth, ErrInjectedFault)
}

// spillFanout picks the partition fan-out for an estimated working set:
// enough partitions that each is expected to fit the share, between 2 and
// 32 (the paper's substrate, like PostgreSQL's hash join, caps fan-out
// and recurses on oversized partitions instead of buffering thousands of
// partitions). The fan-out is additionally capped so the partition buffers
// alone — at their one-row floor — never exceed half the share: a very
// tight share gets fewer partitions and deeper recursion instead of a
// structural budget breach.
func spillFanout(est, share, rowBytes int64) int {
	f := int64(4)
	for f*share < est && f < 32 {
		f <<= 1
	}
	for f > 2 && 2*f*rowBytes > share {
		f >>= 1
	}
	return int(f)
}

// spillSalt derives the partition-hash perturbation for one recursion
// depth, so re-partitioning an oversized partition redistributes its rows
// instead of rehashing them into a single bucket again.
func spillSalt(depth int) uint64 {
	return 0x5f11ed ^ uint64(depth)*0x9e3779b97f4a7c15
}

// maxSpillDepth caps partition recursion. A partition that still exceeds
// the share at the cap (e.g. one extremely hot key, which no amount of
// re-partitioning can split) is processed in memory — correctness over
// the budget, the same escape hatch real executors use.
const maxSpillDepth = 6

// extent is one frame's byte range in the statement's spill file, length
// prefix included.
type extent struct{ off, n int64 }

// spillPart is one partition (or sort run): the extents of its frames in
// write order, the rows and bytes they hold, and the buffer of rows not
// yet written.
type spillPart struct {
	exts  []extent
	b     *chunkBuilder
	rows  int64
	bytes int64
}

// partitionSet fans one segment task's rows out into fanout partitions.
// Buffer sizes adapt to the share so the set's in-memory footprint stays
// within it; the footprint is charged to the statement ledger for the
// set's lifetime.
type partitionSet struct {
	e       *execEnv
	seg     int
	parts   []*spillPart
	ncols   int
	bufRows int
	scratch []byte
	ioSeq   *int64
	charged int64
}

// spillBufRows sizes partition buffers: the whole set (fanout buffers of
// ncols 8-byte values) should use at most half the share, within sane
// bounds. The floor is a single row — tiny shares trade frame granularity
// for staying accountable.
func spillBufRows(share int64, fanout, ncols int) int {
	rowB := int64(ncols) * 8
	if rowB <= 0 {
		rowB = 8
	}
	rows := share / (2 * int64(fanout) * rowB)
	if rows < 1 {
		rows = 1
	}
	if rows > 1024 {
		rows = 1024
	}
	return int(rows)
}

// newPartitionSet opens fanout empty partitions of ncols columns.
func (e *execEnv) newPartitionSet(seg, fanout, ncols int, ioSeq *int64) *partitionSet {
	ps := &partitionSet{
		e:       e,
		seg:     seg,
		parts:   make([]*spillPart, fanout),
		ncols:   ncols,
		bufRows: spillBufRows(e.segShare(), fanout, ncols),
		ioSeq:   ioSeq,
	}
	for i := range ps.parts {
		ps.parts[i] = &spillPart{b: newChunkBuilder(ncols)}
	}
	ps.charged = int64(fanout) * int64(ps.bufRows) * int64(ncols) * 8
	e.acct.charge(ps.charged)
	return ps
}

// appendRow routes all columns of row r of ch into partition p.
func (ps *partitionSet) appendRow(p int, ch *Chunk, r int) error {
	w := ps.parts[p]
	for c := 0; c < ps.ncols; c++ {
		w.b.appendCol(c, ch.cols[c][r], ch.nulls[c].get(r))
	}
	w.b.n++
	if w.b.n >= ps.bufRows {
		return ps.flush(p)
	}
	return nil
}

// appendRowExtra routes row r of ch plus one extra trailing value (the
// hidden original-row-index column the spill kernels carry).
func (ps *partitionSet) appendRowExtra(p int, ch *Chunk, r int, extra int64) error {
	w := ps.parts[p]
	nc := len(ch.cols)
	for c := 0; c < nc; c++ {
		w.b.appendCol(c, ch.cols[c][r], ch.nulls[c].get(r))
	}
	w.b.appendCol(nc, extra, false)
	w.b.n++
	if w.b.n >= ps.bufRows {
		return ps.flush(p)
	}
	return nil
}

// writeSpillFrame length-prefixes and encodes one frame, passes the
// fault-injection hook, reserves the frame's extent at the end of the
// statement's spill file and writes it there. The caller's scratch buffer
// is reused across frames.
func (e *execEnv) writeSpillFrame(seg int, scratch *[]byte, fr *Chunk, ioSeq *int64) (extent, error) {
	f, err := e.spillFile()
	if err != nil {
		return extent{}, err
	}
	buf := (*scratch)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, 0) // frameLen placeholder
	buf = encodeChunkFrame(buf, fr)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	*scratch = buf
	if err := e.spillIOFault(seg, ioSeq); err != nil {
		return extent{}, err
	}
	n := int64(len(buf))
	ext := extent{off: e.spillEnd.Add(n) - n, n: n}
	if _, err := f.WriteAt(buf, ext.off); err != nil {
		return extent{}, fmt.Errorf("engine: writing spill frame: %w", err)
	}
	return ext, nil
}

// flush encodes and writes partition p's buffered rows as one frame.
func (ps *partitionSet) flush(p int) error {
	w := ps.parts[p]
	if w.b.n == 0 {
		return nil
	}
	n := w.b.n
	ext, err := ps.e.writeSpillFrame(ps.seg, &ps.scratch, w.b.finish(), ps.ioSeq)
	if err != nil {
		return err
	}
	w.exts = append(w.exts, ext)
	w.rows += int64(n)
	w.bytes += ext.n
	w.b = newChunkBuilder(ps.ncols)
	return nil
}

// finish flushes every partition, reports the pass to the spill counters,
// releases the buffer charge, and returns the partitions for the caller
// to read back.
func (ps *partitionSet) finish() ([]*spillPart, error) {
	var total int64
	for p, w := range ps.parts {
		if err := ps.flush(p); err != nil {
			ps.abort()
			return nil, err
		}
		total += w.bytes
	}
	ps.e.acct.release(ps.charged)
	ps.charged = 0
	ps.e.noteSpill(total, int64(len(ps.parts)), 1)
	return ps.parts, nil
}

// abort releases the set's buffer charge after a failure. Extents already
// written stay dead space in the spill file until the statement closes it.
func (ps *partitionSet) abort() {
	ps.e.acct.release(ps.charged)
	ps.charged = 0
}

// readFrame reads and decodes the frame at ext, reusing *buf. The length
// prefix must agree with the extent before the body is decoded.
func (e *execEnv) readFrame(ext extent, buf *[]byte) (*Chunk, error) {
	f, err := e.spillFile()
	if err != nil {
		return nil, err
	}
	if ext.n <= 4 {
		return nil, errSpillCorrupt
	}
	if int64(cap(*buf)) < ext.n {
		*buf = make([]byte, ext.n)
	}
	b := (*buf)[:ext.n]
	if _, err := f.ReadAt(b, ext.off); err != nil {
		return nil, fmt.Errorf("engine: reading spill frame: %w", err)
	}
	if int64(binary.LittleEndian.Uint32(b)) != ext.n-4 {
		return nil, errSpillCorrupt
	}
	ch, _, err := decodeChunkFrame(b[4:])
	return ch, err
}

// eachFrame decodes the frames of exts in order and hands each to fn.
func (e *execEnv) eachFrame(exts []extent, fn func(*Chunk) error) error {
	var buf []byte
	for _, ext := range exts {
		fr, err := e.readFrame(ext, &buf)
		if err != nil {
			return err
		}
		if err := fn(fr); err != nil {
			return err
		}
	}
	return nil
}

// readPartition reads a whole partition back as one chunk of ncols
// columns (the build side of a grace join sub-partition).
func (e *execEnv) readPartition(part *spillPart, ncols int) (*Chunk, error) {
	var frames []*Chunk
	err := e.eachFrame(part.exts, func(fr *Chunk) error {
		frames = append(frames, fr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(frames) == 1 {
		return frames[0], nil
	}
	return concatChunks(nil, ncols, frames), nil
}
