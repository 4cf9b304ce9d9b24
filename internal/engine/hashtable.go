package engine

import "dbcc/internal/xrand"

// This file holds the int64-specialized hash tables the execution kernels
// use instead of generic Go maps: open addressing with linear probing over
// power-of-two capacities, no tombstones (the tables are insert-only for
// the lifetime of one operator), and dense int32 payloads. They exist
// because the engine's hot loops — join build/probe, group-by state
// lookup, DISTINCT dedup — otherwise spend their time in runtime.mapassign
// and per-key allocations.

// nextPow2 returns the smallest power of two >= n (and >= 8).
func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
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
	head []int32 // head[slot] = first build row for keys[slot], -1 if empty
	next []int32 // next[row] = next build row with the same key, -1 at end
	mask uint32
}

// newJoinTable sizes a table for n build rows at load factor <= 1/2.
func newJoinTable(n int) *joinTable {
	slots := nextPow2(2 * n)
	t := &joinTable{
		keys: make([]int64, slots),
		head: make([]int32, slots),
		next: make([]int32, n),
		mask: uint32(slots - 1),
	}
	for i := range t.head {
		t.head[i] = -1
	}
	return t
}

// insert links build row onto the chain for key.
func (t *joinTable) insert(key int64, row int32) {
	s := uint32(xrand.Mix64(uint64(key))) & t.mask
	for {
		h := t.head[s]
		if h < 0 {
			t.keys[s] = key
			t.head[s] = row
			t.next[row] = -1
			return
		}
		if t.keys[s] == key {
			t.next[row] = h
			t.head[s] = row
			return
		}
		s = (s + 1) & t.mask
	}
}

// lookup returns the first build row matching key, or -1.
func (t *joinTable) lookup(key int64) int32 {
	s := uint32(xrand.Mix64(uint64(key))) & t.mask
	for {
		h := t.head[s]
		if h < 0 {
			return -1
		}
		if t.keys[s] == key {
			return h
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
	slots  []int32  // dense id per occupied slot, -1 if empty
	idHash []uint64 // hash of each admitted id, in id order
	mask   uint32
	n      int
}

// newGroupTable sizes a table for about capHint distinct ids.
func newGroupTable(capHint int) *groupTable {
	slots := nextPow2(2 * capHint)
	t := &groupTable{
		slots:  make([]int32, slots),
		idHash: make([]uint64, 0, capHint),
		mask:   uint32(slots - 1),
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// insertOrGet returns the id for a row with hash h, admitting a new id
// (found=false) when no admitted id with the same hash satisfies eq. The
// caller must record the new id's data before the next insertOrGet call,
// since later probes may invoke eq against it.
func (t *groupTable) insertOrGet(h uint64, eq func(id int32) bool) (id int32, found bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := uint32(h) & t.mask
	for {
		id := t.slots[s]
		if id < 0 {
			id = int32(t.n)
			t.slots[s] = id
			t.idHash = append(t.idHash, h)
			t.n++
			return id, false
		}
		if t.idHash[id] == h && eq(id) {
			return id, true
		}
		s = (s + 1) & t.mask
	}
}

// grow doubles the slot array and reinserts every admitted id from the
// hash cache.
func (t *groupTable) grow() {
	slots := make([]int32, 2*len(t.slots))
	for i := range slots {
		slots[i] = -1
	}
	mask := uint32(len(slots) - 1)
	for id, h := range t.idHash {
		s := uint32(h) & mask
		for slots[s] >= 0 {
			s = (s + 1) & mask
		}
		slots[s] = int32(id)
	}
	t.slots = slots
	t.mask = mask
}

// chunkRowHash mixes columns [lo, hi) of row r into a 64-bit hash, with a
// fixed perturbation for NULLs (the same construction the whole-row
// shuffle hash uses, so NULL and zero never collide silently).
func chunkRowHash(ch *Chunk, lo, hi, r int) uint64 {
	var h uint64
	for c := lo; c < hi; c++ {
		if ch.nulls[c].get(r) {
			h = xrand.Mix64(h ^ nullHashSeed)
		} else {
			h = xrand.Mix64(h ^ uint64(ch.cols[c][r]))
		}
	}
	return h
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
