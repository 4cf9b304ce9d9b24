package engine

import (
	"math"
	"slices"
	"testing"

	"dbcc/internal/xrand"
)

// Fuzz target for the data-movement kernel of the radix shuffle. It sits
// on the hot path of every redistribution, so its invariant is stated
// absolutely: FuzzRadixPartition's partition permutation is always a
// bijection from the input rows onto the bucket rows — every row appears
// exactly once, in its chosen bucket, in source order, and the result is
// bit-identical to the row-at-a-time reference (including zeroed payloads
// under NULL bits, since buckets are carved from stale pooled memory). The
// same inputs drive routeChunk, which must agree with the row-at-a-time
// placement rule for every part count.
//
// Seed corpora live in testdata/fuzz/FuzzRadixPartition plus the f.Add
// seeds below; the CI lint job runs it for a 30s smoke.

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
		// byte 0xff means NULL.
		rowBytes := 1 + ncols
		n := len(data) / rowBytes
		if n > 1<<12 {
			n = 1 << 12
		}
		rows := make([]Row, n)
		dests := make([]int32, n)
		for r := 0; r < n; r++ {
			rec := data[r*rowBytes : (r+1)*rowBytes]
			dests[r] = int32(int(rec[0]) % nparts)
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
		routeChunk(ch, 0, nparts, routed)
		for r, got := range routed {
			want := int32(0)
			if k := rows[r][0]; !k.Null {
				want = int32(xrand.Mix64(uint64(k.Int)) % uint64(nparts))
			}
			if got != want {
				t.Fatalf("row %d (key %v) routed to part %d of %d, want %d", r, rows[r][0], got, nparts, want)
			}
		}

		fp := getI64(len(ch.cols) * ch.length)
		parts := radixPartitionChunk(ch, dests, nparts, *fp)
		defer putI64(fp)
		want := referencePartition(ch, dests, nparts)

		// Bijection onto the rows: bucket sizes sum to the row count and
		// every bucket matches the reference content and order exactly.
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
		if total != n {
			t.Fatalf("buckets hold %d rows, want %d", total, n)
		}
	})
}

// FuzzJoinPipeline holds the join kernel with a fused pipeline to the
// unfused evaluation — the nested-loop join's full-width rows, filtered
// and projected row at a time — on arbitrary inputs: rows, their order,
// their NULLs and the operators' row counts must be identical, for any
// join kind, match-list limit and test pipeline (joinPipeCases), and the
// output must equal, bit for bit (chunksSameRows), the pipeline run over
// the full-width join chunk.
//
// Input layout: byte 0 picks the pipeline, byte 1 the join kind (low
// bit) and the limit, byte 2 how many of the rows that follow are left
// rows; every row is three value bytes, 0xff meaning NULL, and the key
// byte is folded onto a few values so that rows match.
func FuzzJoinPipeline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 1, 2, 3, 1, 5, 5, 1, 7, 2, 0xff, 1, 1})
	f.Add([]byte{3, 5, 3, 0, 1, 2, 0, 0xff, 4, 0xff, 2, 2, 0, 9, 0xff, 0, 3, 3, 1, 1, 1})
	hot := []byte{8, 2, 20}
	for i := 0; i < 60; i++ {
		hot = append(hot, byte(i%2), byte(i*7), byte(0xff*(i%5/4)))
	}
	f.Add(hot)
	f.Add([]byte("02\x020000 0000")) // two one-pair blocks under a literal NULL column

	cases := joinPipeCases()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		pc := cases[int(data[0])%len(cases)]
		kind := InnerJoin
		if data[1]&1 != 0 {
			kind = LeftOuterJoin
		}
		limit := []int{1, 2, 5, 64, math.MaxInt}[int(data[1]>>1)%5]
		nleft := int(data[2])
		data = data[3:]
		n := min(len(data)/3, 600)
		var left, right []Row
		for r := 0; r < n; r++ {
			row := make(Row, 3)
			for c := range row {
				b := data[3*r+c]
				switch {
				case b == 0xff:
					row[c] = NullDatum
				case c == 0:
					row[c] = I(int64(b % 4))
				default:
					row[c] = I(int64(int8(b)))
				}
			}
			if r < nleft {
				left = append(left, row)
			} else {
				right = append(right, row)
			}
		}
		pl := pc.pipeline()
		want, wantKept := pc.reference(referenceJoin(left, right, 0, 0, 3, kind))
		r := make([]int64, len(pl.filters)+1)
		got, err := joinChunks(rowsToChunk(left, 3), rowsToChunk(right, 3), 0, 0, kind, limit,
			new(memAcct), pl, pl.reads(6), r, nil)
		if err != nil {
			t.Fatal(err)
		}
		chunkEqualRows(t, got, want)
		for i := range pl.filters {
			if r[i] != wantKept[len(pl.filters)-1-i] {
				t.Fatalf("%s: filter %d kept %d rows, want %d", pc.name, i, r[i], wantKept[len(pl.filters)-1-i])
			}
		}
		// Bit for bit, payloads under NULLs and nil bitmaps included, the
		// fused output is what the pipeline computes over the full-width
		// join: stale pooled scratch must not show through anywhere.
		unfused, err := pl.run(fullJoin(rowsToChunk(left, 3), rowsToChunk(right, 3), 0, 0, kind, limit, new(memAcct)),
			make([]int64, len(pl.filters)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !chunksSameRows(got, unfused) {
			t.Fatalf("%s: fused output differs from the unfused pipeline's bit for bit", pc.name)
		}
	})
}

// chunksSameRows reports whether two chunks hold the same rows bit for
// bit: the same values, payloads under NULLs included, the same NULL bits
// and nil bitmaps in the same columns. Bitmap bits past the last row are
// not rows: a literal NULL column sets whole words, and concatenating
// blocks copies only the rows' bits.
func chunksSameRows(a, b *Chunk) bool {
	if a.length != b.length || len(a.cols) != len(b.cols) {
		return false
	}
	for c := range a.cols {
		if !slices.Equal(a.cols[c], b.cols[c]) || (a.nulls[c] == nil) != (b.nulls[c] == nil) {
			return false
		}
		for r := 0; r < a.length; r++ {
			if a.nulls[c].get(r) != b.nulls[c].get(r) {
				return false
			}
		}
	}
	return true
}
