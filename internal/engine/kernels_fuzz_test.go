package engine

import (
	"math"
	"slices"
	"testing"

	"dbcc/internal/xrand"
)

// Fuzz target for the partition kernel behind every shuffle and INSERT
// placement. It sits on the hot path of every redistribution, so its
// invariants are stated absolutely: each source's permutation
// (partitionRows) is a bijection onto its rows that lists every row under
// its own destination, in source order; each destination's gather
// (gatherRows) from all sources into stale memory is bit-identical to the
// historical two-copy shuffle — per-source buckets concatenated source
// after source — with a zero payload under every NULL bit; and the
// one-source form (partitionChunk) agrees. The same inputs drive
// routeChunk, which must agree with the row-at-a-time placement rule for
// every part count.
//
// Input layout: byte 0 picks the part count (1–8), byte 1 the column
// count (1–3) and the source count (1–3); every row is one destination
// byte and one value byte per column, 0xff meaning NULL. Seed corpora
// live in testdata/fuzz/FuzzRadixPartition plus the f.Add seeds below;
// the CI lint job runs it for a 30s smoke.

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
	// One part from three sources, one column NULL on every third row; and
	// seven parts from three sources with two columns, NULLs in both.
	onePart := []byte{0, 6}
	for i := 0; i < 60; i++ {
		v := byte(i * 3)
		if i%3 == 2 {
			v = 0xff
		}
		onePart = append(onePart, byte(i), v)
	}
	f.Add(onePart)
	sevenParts := []byte{6, 7}
	for i := 0; i < 90; i++ {
		sevenParts = append(sevenParts, byte(i*5), byte(0xff*(i%4/3)), byte(0xff*(i%5/4)))
	}
	f.Add(sevenParts)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nparts := int(data[0]%8) + 1
		ncols := int(data[1]%3) + 1
		nsrc := int(data[1]/3%3) + 1
		data = data[2:]
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

		// Split the rows into nsrc sources of consecutive rows, as the
		// segments of a shuffle's input.
		srcs := make([]*Chunk, nsrc)
		rts := make([]routing, nsrc)
		for s := range srcs {
			lo, hi := s*n/nsrc, (s+1)*n/nsrc
			srcs[s] = rowsToChunk(rows[lo:hi], ncols)
			rts[s] = routing{bounds: make([]int32, nparts+1), perm: make([]int32, hi-lo)}
			partitionRows(dests[lo:hi], rts[s])
			// Bijection onto the source's rows, each under its own
			// destination, in source order.
			seen := make([]bool, hi-lo)
			for d := 0; d < nparts; d++ {
				prev := int32(-1)
				for _, r := range rts[s].rows(d) {
					if r <= prev || seen[r] || dests[lo+int(r)] != int32(d) {
						t.Fatalf("source %d part %d: row %d out of order, repeated or misplaced", s, d, r)
					}
					seen[r] = true
					prev = r
				}
			}
			if int(rts[s].bounds[nparts]) != hi-lo || slices.Contains(seen, false) {
				t.Fatalf("source %d: permutation covers %d of %d rows", s, rts[s].bounds[nparts], hi-lo)
			}
		}

		// Each destination's gather into stale memory holds the reference's
		// rows, source after source, with zero under every NULL bit, and is
		// bit-identical to the two-copy shuffle's concatenation of
		// per-source buckets in fresh memory.
		for d := 0; d < nparts; d++ {
			buckets := make([]*Chunk, nsrc)
			var wantRows []Row
			total := 0
			for s := range srcs {
				total += len(rts[s].rows(d))
				lo := s * n / nsrc
				sd := dests[lo : lo+srcs[s].length]
				buckets[s] = partitionChunk(srcs[s], sd, nparts)[d]
				wantRows = append(wantRows, referencePartition(srcs[s], sd, nparts)[d]...)
			}
			got := poisonedChunk(ncols, total)
			gatherRows(got, srcs, rts, d)
			chunkEqualRows(t, got, wantRows)
			for c := 0; c < ncols; c++ {
				for r := 0; r < total; r++ {
					if got.nulls[c].get(r) && got.cols[c][r] != 0 {
						t.Fatalf("part %d col %d row %d: NULL slot payload %d != 0", d, c, r, got.cols[c][r])
					}
				}
			}
			if want := concatChunks(nil, ncols, buckets); !chunksIdentical(got, want) {
				t.Fatalf("part %d: gather differs from the concatenated buckets bit for bit", d)
			}
		}

		// The one-source form matches the row-at-a-time reference.
		parts := partitionChunk(ch, dests, nparts)
		want := referencePartition(ch, dests, nparts)
		for d := 0; d < nparts; d++ {
			chunkEqualRows(t, parts[d], want[d])
		}
	})
}

// poisonedChunk is a chunk of ncols columns and n rows whose every value
// reads arenaPoison: the stale pooled memory a shuffle destination may be
// taken from.
func poisonedChunk(ncols, n int) *Chunk {
	ch := newChunk(ncols, n)
	for _, col := range ch.cols {
		for i := range col {
			col[i] = arenaPoison
		}
	}
	return ch
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
