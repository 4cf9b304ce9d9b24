package engine

import "dbcc/internal/xrand"

// This file holds the int64-specialized hash tables the execution kernels
// use instead of generic Go maps: open addressing with linear probing over
// power-of-two capacities, no tombstones (the tables are insert-only for
// the lifetime of one operator), and dense int32 payloads. They exist
// because the engine's hot loops — join build/probe, group-by state
// lookup, DISTINCT dedup — otherwise spend their time in runtime.mapassign
// and per-key allocations.
//
// Slot bits. A table takes a key's home slot from the HIGH 32 bits of its
// 64-bit hash (slotOf). The shuffle already spent the low bits: it places
// a row on segment hash & (segs-1) (segPicker), by the same key hash for
// joins and group-by and by the same whole-row hash for DISTINCT. Every
// key a segment receives therefore shares its low log2(segs) hash bits,
// and a table indexed by them could reach only 1/segs of its slots —
// linear probing then averages two to three probes per insert at load
// 1/2 instead of about one.
//
// Empty slots read 0: slots store a row or id plus one, so a zeroed slice
// is an empty table. Slot arrays come from the scratch pools and go back
// through release when the kernel that built the table returns.

// nextPow2 returns the smallest power of two >= n (and >= 8).
func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// slotOf is the home slot of hash h in a table of mask+1 slots: the high
// half of the hash, which the shuffle's placement did not use.
func slotOf(h uint64, mask uint32) uint32 { return uint32(h>>32) & mask }

// zeroedI32 returns a pooled box holding n zeroed int32s.
func zeroedI32(n int) *[]int32 {
	p := getI32(n)
	*p = (*p)[:n]
	clear(*p)
	return p
}

// joinTable indexes the build side of a hash join: an open-addressed table
// keyed on the raw int64 join key, where each occupied slot heads a chain
// of build-row indices threaded through next (rows sharing a key link
// together, replacing the map[int64][]Row bucket slices of the row
// engine). Chains are built by prepending, so inserting rows in reverse
// order yields chains that iterate in ascending build order — exactly the
// match order the row engine produced.
type joinTable struct {
	keys []int64
	head []int32 // head[slot] = first build row for keys[slot] + 1, 0 if empty
	next []int32 // next[row] = next build row with the same key, -1 at end
	mask uint32

	kp     *[]int64 // pooled backings of keys, head and next
	hp, np *[]int32
}

// newJoinTable sizes a table for n build rows at load factor <= 1/2.
// Call release once no probe will read it again.
func newJoinTable(n int) *joinTable {
	slots := nextPow2(2 * n)
	t := &joinTable{kp: getI64(slots), hp: zeroedI32(slots), np: getI32(n), mask: uint32(slots - 1)}
	// keys and next are only read where head (resp. an inserted row) says
	// they were written, so their stale pool contents never show.
	t.keys, t.head, t.next = *t.kp, *t.hp, (*t.np)[:n]
	return t
}

// release returns the table's arrays to the scratch pools.
func (t *joinTable) release() {
	putI64(t.kp)
	putI32(t.hp)
	putI32(t.np)
	*t = joinTable{}
}

// insert links build row onto the chain for key.
func (t *joinTable) insert(key int64, row int32) {
	s := slotOf(xrand.Mix64(uint64(key)), t.mask)
	for {
		h := t.head[s]
		if h == 0 {
			t.keys[s] = key
			t.head[s] = row + 1
			t.next[row] = -1
			return
		}
		if t.keys[s] == key {
			t.next[row] = h - 1
			t.head[s] = row + 1
			return
		}
		s = (s + 1) & t.mask
	}
}

// lookup returns the first build row matching key, or -1.
func (t *joinTable) lookup(key int64) int32 {
	s := slotOf(xrand.Mix64(uint64(key)), t.mask)
	for {
		h := t.head[s]
		if h == 0 || t.keys[s] == key {
			return h - 1
		}
		s = (s + 1) & t.mask
	}
}

// groupTable maps hashed rows to dense small-int ids — the shared engine
// under group-by (id = group number) and DISTINCT (id = kept-row number).
// The caller supplies the 64-bit row hash and an equality predicate over
// already-admitted ids; the table caches each id's hash so probes compare
// one uint64 before falling back to column-wise equality, and growth
// rehashes from the cache without re-reading any data.
type groupTable struct {
	slots  []int32  // id+1 per occupied slot, 0 if empty
	idHash []uint64 // hash of each admitted id, in id order
	mask   uint32

	sp *[]int32  // pooled backing of slots
	hp *[]uint64 // pooled backing of idHash
}

// newGroupTable sizes a table for capHint distinct ids; it grows past
// that. The hash cache starts from whatever capacity its pooled backing
// has and grows by append, since the number of ids is usually far below
// the hint. Call release once no probe will read it again.
func newGroupTable(capHint int) *groupTable {
	slots := nextPow2(2 * capHint)
	t := &groupTable{sp: zeroedI32(slots), hp: u64Scratch.get(0), mask: uint32(slots - 1)}
	t.slots, t.idHash = *t.sp, *t.hp
	return t
}

// release returns the table's arrays to the scratch pools.
func (t *groupTable) release() {
	*t.hp = t.idHash[:0] // keep any capacity append added
	putI32(t.sp)
	u64Scratch.put(t.hp)
	*t = groupTable{}
}

// insertOrGet returns the id for a row with hash h, admitting a new id
// (found=false) when no admitted id with the same hash satisfies eq. The
// caller must record the new id's data before the next insertOrGet call,
// since later probes may invoke eq against it.
func (t *groupTable) insertOrGet(h uint64, eq func(id int32) bool) (id int32, found bool) {
	n := len(t.idHash)
	if 2*(n+1) > len(t.slots) {
		t.grow()
	}
	s := slotOf(h, t.mask)
	for {
		id := t.slots[s] - 1
		if id < 0 {
			t.slots[s] = int32(n) + 1
			t.idHash = append(t.idHash, h)
			return int32(n), false
		}
		if t.idHash[id] == h && eq(id) {
			return id, true
		}
		s = (s + 1) & t.mask
	}
}

// grow doubles the slot array and reinserts every admitted id from the
// hash cache. Kernels size their tables so that only the spill fold, which
// cannot know its group count up front, ever grows one.
func (t *groupTable) grow() {
	sp := zeroedI32(2 * len(t.slots))
	slots := *sp
	mask := uint32(len(slots) - 1)
	for id, h := range t.idHash {
		s := slotOf(h, mask)
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = int32(id) + 1
	}
	putI32(t.sp)
	t.sp, t.slots, t.mask = sp, slots, mask
}

// hashBlock is how many rows a kernel hashes per hashRows call. A block of
// hashes stays in L1 across the column passes, and one pooled block
// buffer serves a chunk of any length.
const hashBlock = 1024

// hashRows hashes columns [lo, hi) of the rows of ch from r0 on, as many
// as fit in buf, and returns the filled prefix of buf: element i is the
// hash of row r0+i — the hash group-by keys, DISTINCT rows and whole-row
// shuffle routes are placed and looked up by. It runs a column at a time:
// one pass per column folds that column into every row's hash,
// branch-free for a column without NULLs. NULLs mix in a fixed
// perturbation instead of their payload, so NULL and zero never collide
// silently.
func hashRows(ch *Chunk, lo, hi, r0 int, buf []uint64) []uint64 {
	out := buf[:min(len(buf), ch.length-r0)]
	clear(out)
	for c := lo; c < hi; c++ {
		col, nb := ch.cols[c][r0:r0+len(out)], ch.nulls[c]
		if nb == nil {
			for i, v := range col {
				out[i] = xrand.Mix64(out[i] ^ uint64(v))
			}
			continue
		}
		for i, v := range col {
			x := uint64(v)
			if nb.get(r0 + i) {
				x = nullHashSeed
			}
			out[i] = xrand.Mix64(out[i] ^ x)
		}
	}
	return out
}

// nullHashSeed perturbs row hashes for NULL values, matching the historic
// whole-row redistribution hash.
const nullHashSeed = 0x9e37

// chunkRowsEqual reports whether columns [lo, hi) of row a in ca equal the
// same columns of row b in cb, treating NULL as equal to NULL (group keys
// and DISTINCT compare NULLs as identical, per SQL GROUP BY semantics).
func chunkRowsEqual(ca *Chunk, a int, cb *Chunk, b int, lo, hi int) bool {
	for c := lo; c < hi; c++ {
		an, bn := ca.nulls[c].get(a), cb.nulls[c].get(b)
		if an != bn {
			return false
		}
		if !an && ca.cols[c][a] != cb.cols[c][b] {
			return false
		}
	}
	return true
}
