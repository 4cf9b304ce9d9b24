package engine

import (
	"encoding/binary"
	"testing"

	"dbcc/internal/xrand"
)

// Fuzz targets for the data-movement kernels of the radix shuffle and
// bloom-join pruning. Both kernels sit on the hot path of every
// redistribution, so their invariants are stated absolutely:
//
//   - FuzzBloomFilter: a key that was added is NEVER reported absent, on
//     one filter or across an OR-merge of same-sized partial filters — a
//     false negative would silently drop matching join rows.
//   - FuzzRadixPartition: the partition permutation is always a bijection
//     from the kept input rows onto the bucket rows — every kept row
//     appears exactly once, in its chosen bucket, in source order, and the
//     result is bit-identical to the row-at-a-time reference (including
//     zeroed payloads under NULL bits, since buckets are carved from
//     stale pooled memory). The same inputs drive routeChunk, which must
//     agree with the row-at-a-time placement rule for every part count.
//
// Seed corpora live in testdata/fuzz/Fuzz{BloomFilter,RadixPartition}
// plus the f.Add seeds below; the CI lint job runs each for a 30s smoke.

// fuzzKeys decodes data into int64 keys, 8 bytes each.
func fuzzKeys(data []byte) []int64 {
	keys := make([]int64, 0, len(data)/8)
	for len(data) >= 8 {
		keys = append(keys, int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return keys
}

func FuzzBloomFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(i)*0x9e3779b97f4a7c15)
		seed = append(seed, w[:]...)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		keys := fuzzKeys(data)
		if len(keys) > 1<<14 {
			keys = keys[:1<<14]
		}
		// Build the way a join does: per-segment partial filters sized for
		// the total build cardinality, OR-merged into one.
		whole := newBloomFilter(int64(len(keys)))
		mid := len(keys) / 2
		a, b := newBloomFilter(int64(len(keys))), newBloomFilter(int64(len(keys)))
		for _, k := range keys[:mid] {
			a.add(k)
			whole.add(k)
		}
		for _, k := range keys[mid:] {
			b.add(k)
			whole.add(k)
		}
		a.merge(b)
		for _, k := range keys {
			if !whole.mayContain(k) {
				t.Fatalf("false negative: single filter lost key %d", k)
			}
			if !a.mayContain(k) {
				t.Fatalf("false negative: merged partials lost key %d", k)
			}
		}
		// Adding is idempotent: re-adding every key must not change a bit.
		before := append([]uint64(nil), a.words...)
		for _, k := range keys {
			a.add(k)
		}
		for i, w := range a.words {
			if w != before[i] {
				t.Fatalf("re-adding keys changed filter word %d", i)
			}
		}
	})
}

func FuzzRadixPartition(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 7, 0xff, 2, 9})
	seed := []byte{8, 3}
	for i := 0; i < 200; i++ {
		seed = append(seed, byte(i*7), byte(i), byte(i*13), byte(255-i))
	}
	f.Add(seed)
	// Seven parts — not a power of two — and a key column (the first value
	// byte of each row) that is NULL throughout, then NULL on every other row.
	nullKey := []byte{6, 1}
	for i := 0; i < 64; i++ {
		nullKey = append(nullKey, byte(i), 0xff, byte(i*5))
	}
	f.Add(nullKey)
	mixedKey := []byte{6, 1}
	for i := 0; i < 64; i++ {
		mixedKey = append(mixedKey, byte(i), byte(0xff*(i%2)), byte(i*11))
	}
	f.Add(mixedKey)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nparts := int(data[0]%8) + 1
		ncols := int(data[1]%3) + 1
		data = data[2:]
		// Each row consumes 1 destination byte + ncols value bytes; value
		// byte 0xff means NULL, and destination byte high bit means pruned.
		rowBytes := 1 + ncols
		n := len(data) / rowBytes
		if n > 1<<12 {
			n = 1 << 12
		}
		rows := make([]Row, n)
		dests := make([]int32, n)
		for r := 0; r < n; r++ {
			rec := data[r*rowBytes : (r+1)*rowBytes]
			if rec[0]&0x80 != 0 {
				dests[r] = -1
			} else {
				dests[r] = int32(int(rec[0]) % nparts)
			}
			row := make(Row, ncols)
			for c := 0; c < ncols; c++ {
				if rec[1+c] == 0xff {
					row[c] = NullDatum
				} else {
					row[c] = I(int64(int8(rec[1+c])))
				}
			}
			rows[r] = row
		}
		ch := rowsToChunk(rows, ncols)

		// The routing kernel must send every row where the row-at-a-time
		// rule does — hash of column 0 modulo the part count, NULL keys to
		// part 0 — whatever the count and wherever the NULLs sit.
		routed := make([]int32, n)
		routeChunk(ch, shuffleRoute{key: 0}, nparts, 0, routed)
		for r, got := range routed {
			want := int32(0)
			if k := rows[r][0]; !k.Null {
				want = int32(xrand.Mix64(uint64(k.Int)) % uint64(nparts))
			}
			if got != want {
				t.Fatalf("row %d (key %v) routed to part %d of %d, want %d", r, rows[r][0], got, nparts, want)
			}
		}

		parts, fp := radixPartitionChunk(ch, dests, nparts)
		defer putI64(fp)
		want := referencePartition(ch, dests, nparts)

		// Bijection onto the kept rows: bucket sizes sum to the kept count
		// and every bucket matches the reference content and order exactly.
		kept := 0
		for _, d := range dests {
			if d >= 0 {
				kept++
			}
		}
		total := 0
		for d := 0; d < nparts; d++ {
			total += parts[d].length
			if parts[d].length != len(want[d]) {
				t.Fatalf("part %d has %d rows, want %d", d, parts[d].length, len(want[d]))
			}
			got := chunkToRows(parts[d])
			for r := range want[d] {
				for c := range want[d][r] {
					if got[r][c] != want[d][r][c] {
						t.Fatalf("part %d row %d: got %v, want %v", d, r, got[r], want[d][r])
					}
				}
			}
			// Stale pooled memory must not leak through NULL slots.
			for c := 0; c < ncols; c++ {
				for r := 0; r < parts[d].length; r++ {
					if parts[d].nulls[c].get(r) && parts[d].cols[c][r] != 0 {
						t.Fatalf("part %d col %d row %d: NULL slot payload %d != 0",
							d, c, r, parts[d].cols[c][r])
					}
				}
			}
		}
		if total != kept {
			t.Fatalf("buckets hold %d rows, want %d kept of %d", total, kept, n)
		}
	})
}
