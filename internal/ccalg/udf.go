package ccalg

import (
	"sync"

	"dbcc/internal/blowfish"
	"dbcc/internal/engine"
	"dbcc/internal/gf"
	"dbcc/internal/xrand"
)

// RegisterUDFs installs the user-defined functions the algorithms' SQL
// relies on, mirroring the paper loading its C functions into HAWQ:
//
//	axplusb(a, x, b) — a·x+b over GF(2^64) (Fig. 7), the finite fields method;
//	axbp(a, x, b)    — a·x+b mod 2^64−59, the SQL-only GF(p) alternative;
//	enc(key, x)      — Blowfish encryption of x under key, the encryption method;
//	hrand(seed, x)   — the per-round "random real" of vertex x, as a 63-bit
//	                   integer (the random reals method's h-table values).
//
// All four treat the int64 column values as raw 64-bit patterns and are
// registered in column form (engine.ColumnUDF): the engine calls them once
// per chunk with the round's coefficients as scalars, so the multiplier
// table or key schedule is looked up once per chunk, not once per row. The
// functions are safe for concurrent evaluation (their memo caches are
// internally locked), and registration is idempotent: once a cluster has
// the UDFs, later calls keep the warm caches instead of replacing them,
// so concurrent algorithm runs share one set.
func RegisterUDFs(c *engine.Cluster) {
	if _, ok := c.UDF("hrand"); ok {
		return
	}
	// Multiplication tables are cached per coefficient a: one contraction
	// round evaluates axplusb with the same a for every row.
	muls := newMemo(gf.NewMultiplier)
	c.RegisterColumnUDF("axplusb", func(out []int64, args []engine.UDFArg) {
		a, x, b := args[0], args[1], args[2]
		var m *gf.Multiplier
		for i := range out {
			if ai := uint64(a.At(i)); m == nil || m.A() != ai {
				m = muls.get(ai)
			}
			out[i] = int64(m.AxB(uint64(x.At(i)), uint64(b.At(i))))
		}
	})

	c.RegisterColumnUDF("axbp", func(out []int64, args []engine.UDFArg) {
		a, x, b := args[0], args[1], args[2]
		for i := range out {
			out[i] = int64(gf.AxBP(uint64(a.At(i)), uint64(x.At(i)), uint64(b.At(i))))
		}
	})

	// Ciphers are cached per round key; the key schedule is far more
	// expensive than a block encryption.
	ciphers := newMemo(blowfish.NewFromUint64)
	c.RegisterColumnUDF("enc", func(out []int64, args []engine.UDFArg) {
		key, x := args[0], args[1]
		var ci *blowfish.Cipher
		var ciKey uint64
		for i := range out {
			if k := uint64(key.At(i)); ci == nil || ciKey != k {
				ci, ciKey = ciphers.get(k), k
			}
			// Keep results non-negative so integer min works like uint64 min;
			// dropping the top bit halves the range but keeps a 2^-63 collision
			// probability per pair, irrelevant for ordering purposes.
			out[i] = int64(ci.Encrypt64(uint64(x.At(i))) >> 1)
		}
	})

	c.RegisterColumnUDF("hrand", func(out []int64, args []engine.UDFArg) {
		seed, x := args[0], args[1]
		for i := range out {
			h := xrand.Mix64(uint64(seed.At(i)) ^ xrand.Mix64(uint64(x.At(i))))
			out[i] = int64(h >> 1) // non-negative 63-bit "random real"
		}
	})
}

// memoCap bounds a memo: a cluster serves many concurrent runs (ccserverd
// tenants × rounds), each with its own live key per round.
const memoCap = 64

// memo caches values that are expensive to build from a 64-bit key — a
// GF(2^64) multiplication table, a Blowfish key schedule — for concurrent
// use. At memoCap entries it evicts the least recently used one, so a key
// some run is still using survives any number of other runs' keys passing
// through. The values sit in a fixed slot array and the map only locates
// a key's slot, so a miss finds the victim by scanning memoCap clock
// readings instead of iterating the map. An evicted value is dropped, not
// reused: a concurrent task may still hold it.
type memo[V any] struct {
	build func(uint64) V

	mu      sync.Mutex
	entries map[uint64]int32 // key → index into slots
	slots   []memoSlot[V]    // grows to memoCap, then each miss replaces one
	clock   uint64
}

type memoSlot[V any] struct {
	key  uint64
	val  V
	used uint64 // clock reading of the last get
}

func newMemo[V any](build func(uint64) V) *memo[V] {
	return &memo[V]{build: build, entries: make(map[uint64]int32, memoCap), slots: make([]memoSlot[V], 0, memoCap)}
}

// get returns the value for key, building it on first use.
func (m *memo[V]) get(key uint64) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	if i, ok := m.entries[key]; ok {
		m.slots[i].used = m.clock
		return m.slots[i].val
	}
	i := len(m.slots)
	if i < memoCap {
		m.slots = append(m.slots, memoSlot[V]{})
	} else {
		i = 0
		for j := range m.slots {
			if m.slots[j].used < m.slots[i].used {
				i = j
			}
		}
		delete(m.entries, m.slots[i].key)
	}
	m.slots[i] = memoSlot[V]{key: key, val: m.build(key), used: m.clock}
	m.entries[key] = int32(i)
	return m.slots[i].val
}
