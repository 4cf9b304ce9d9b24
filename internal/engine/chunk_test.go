package engine

import (
	"context"
	"testing"

	"dbcc/internal/xrand"
)

// TestWireWidthAgreement locks the two places that model the interconnect
// row width together: encodeRow (the canonical byte encoding) and
// DatumWireSize (the width shuffle accounting charges per value). If either changes without the other, shuffle statistics would
// silently stop describing the encoded traffic.
func TestWireWidthAgreement(t *testing.T) {
	rows := []Row{
		{},
		{I(1)},
		{I(1), NullDatum, I(-7)},
		{NullDatum, NullDatum, NullDatum, NullDatum},
	}
	for _, row := range rows {
		got := len(encodeRow(nil, row))
		want := len(row) * DatumWireSize
		if got != want {
			t.Errorf("encodeRow emitted %d bytes for %d columns, want %d (DatumWireSize=%d)",
				got, len(row), want, DatumWireSize)
		}
	}
}

// TestShuffleChargesWireSize asserts the shuffle kernel charges exactly
// rows-moved × columns × DatumWireSize.
func TestShuffleChargesWireSize(t *testing.T) {
	c := NewCluster(Options{Segments: 4})
	in := &relation{
		schema:  Schema{"a", "b"},
		parts:   make([]*Chunk, 4),
		distKey: NoDistKey,
	}
	// 10 rows on segment 0, shuffled by column a: the hash of a decides which
	// of them leave home.
	rows := make([]Row, 10)
	wantRows := make([]int, 4)
	for i := range rows {
		rows[i] = Row{I(int64(i)), I(int64(2 * i))}
		wantRows[xrand.Mix64(uint64(i))%4]++
	}
	in.parts[0] = rowsToChunk(rows, 2)
	for s := 1; s < 4; s++ {
		in.parts[s] = newChunk(2, 0)
	}
	out, moved, err := c.newExecEnv(context.Background()).redistribute(in, 0)
	if err != nil {
		t.Fatalf("shuffle: %v", err)
	}
	want := int64(10-wantRows[0]) * 2 * DatumWireSize
	if moved != want {
		t.Fatalf("shuffle charged %d bytes, want %d", moved, want)
	}
	for s, n := range wantRows {
		if got := out.parts[s].Len(); got != n {
			t.Fatalf("segment %d received %d rows, want %d", s, got, n)
		}
	}
	if s := c.Stats(); s.ShuffleBytes != want {
		t.Fatalf("Stats.ShuffleBytes = %d, want %d", s.ShuffleBytes, want)
	}
}

func TestRowsChunkRoundTrip(t *testing.T) {
	rows := []Row{
		{I(1), NullDatum, I(3)},
		{NullDatum, I(5), I(-6)},
		{I(0), I(0), NullDatum},
	}
	ch := rowsToChunk(rows, 3)
	if ch.Len() != 3 {
		t.Fatalf("chunk length = %d, want 3", ch.Len())
	}
	back := chunkToRows(ch)
	if len(back) != len(rows) {
		t.Fatalf("round trip returned %d rows, want %d", len(back), len(rows))
	}
	for r := range rows {
		for c := range rows[r] {
			if back[r][c] != rows[r][c] {
				t.Errorf("row %d col %d: got %+v, want %+v", r, c, back[r][c], rows[r][c])
			}
		}
	}
	// NULLs must come back exactly as NullDatum (zero payload) so Datum ==
	// comparisons keep working downstream.
	if back[0][1] != NullDatum {
		t.Errorf("NULL round trip produced %+v, want NullDatum", back[0][1])
	}
	if got := chunkToRows(newChunk(3, 0)); got != nil {
		t.Errorf("empty chunk converted to %v, want nil", got)
	}
}

func TestGatherAndConcat(t *testing.T) {
	rows := []Row{{I(10), NullDatum}, {I(20), I(2)}, {I(30), NullDatum}, {I(40), I(4)}}
	ch := rowsToChunk(rows, 2)
	g := gatherChunk(ch, []int32{3, 0})
	want := []Row{{I(40), I(4)}, {I(10), NullDatum}}
	got := chunkToRows(g)
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Errorf("gather row %d col %d: got %+v, want %+v", r, c, got[r][c], want[r][c])
			}
		}
	}

	cc := concatChunks(2, []*Chunk{g, newChunk(2, 0), ch})
	if cc.Len() != 6 {
		t.Fatalf("concat length = %d, want 6", cc.Len())
	}
	all := append(append([]Row{}, want...), rows...)
	cr := chunkToRows(cc)
	for r := range all {
		for c := range all[r] {
			if cr[r][c] != all[r][c] {
				t.Errorf("concat row %d col %d: got %+v, want %+v", r, c, cr[r][c], all[r][c])
			}
		}
	}
}

func TestNullBitmapLazyGrowth(t *testing.T) {
	b := newChunkBuilder(1, 0)
	b.appendCol(0, 7, false)
	b.n++
	b.appendCol(0, 0, true)
	b.n++
	b.appendCol(0, 9, false)
	b.n++
	// Probing far past the lazily grown bitmap must read as non-NULL, not
	// panic: kernels compare admitted builder rows against arbitrary input
	// rows.
	for i := 200; i < 203; i++ {
		if b.nulls[0].get(i) {
			t.Errorf("row %d reads NULL from a bitmap that never covered it", i)
		}
	}
	ch := b.finish()
	wantNull := []bool{false, true, false}
	for i, wn := range wantNull {
		if ch.nulls[0].get(i) != wn {
			t.Errorf("row %d null = %v, want %v", i, !wn, wn)
		}
	}
}

func TestBuilderMergeAgg(t *testing.T) {
	type step struct {
		v    int64
		null bool
	}
	cases := []struct {
		op       AggOp
		steps    []step
		want     int64
		wantNull bool
	}{
		{AggMin, []step{{5, false}, {3, false}, {9, false}}, 3, false},
		{AggMin, []step{{5, true}, {3, true}}, 0, true},
		{AggMin, []step{{5, true}, {4, false}}, 4, false},
		{AggMax, []step{{5, false}, {3, false}, {9, false}}, 9, false},
		{AggMax, []step{{1, true}}, 0, true},
		{AggSum, []step{{5, false}, {0, true}, {9, false}}, 14, false},
		{AggSum, []step{{2, true}, {2, true}}, 0, true},
		{AggCount, []step{{1, false}, {0, false}, {1, false}}, 2, false},
	}
	for i, tc := range cases {
		b := newChunkBuilder(1, 0)
		b.appendCol(0, 0, true) // fresh state starts NULL
		b.n++
		for _, s := range tc.steps {
			b.mergeAgg(0, 0, tc.op, s.v, s.null)
		}
		gotNull := b.nulls[0].get(0)
		if gotNull != tc.wantNull {
			t.Errorf("case %d: state null = %v, want %v", i, gotNull, tc.wantNull)
			continue
		}
		if !gotNull && b.cols[0][0] != tc.want {
			t.Errorf("case %d: state = %d, want %d", i, b.cols[0][0], tc.want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-1: 8, 0: 8, 1: 8, 8: 8, 9: 16, 16: 16, 17: 32, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestJoinTableChains(t *testing.T) {
	jt := newJoinTable(6)
	// Insert in reverse, as joinChunks does, so chains iterate ascending.
	keys := []int64{7, 7, 3, 7, 3, 100}
	for i := len(keys) - 1; i >= 0; i-- {
		jt.insert(keys[i], int32(i))
	}
	collect := func(k int64) []int32 {
		var out []int32
		for m := jt.lookup(k); m >= 0; m = jt.next[m] {
			out = append(out, m)
		}
		return out
	}
	if got := collect(7); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("chain for key 7 = %v, want [0 1 3]", got)
	}
	if got := collect(3); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("chain for key 3 = %v, want [2 4]", got)
	}
	if got := collect(100); len(got) != 1 || got[0] != 5 {
		t.Errorf("chain for key 100 = %v, want [5]", got)
	}
	if m := jt.lookup(42); m != -1 {
		t.Errorf("lookup of absent key returned %d, want -1", m)
	}
}

func TestGroupTableGrowth(t *testing.T) {
	// Start tiny so insertOrGet's doubling path is exercised many times.
	gt := newGroupTable(1)
	hashes := make([]uint64, 0, 500)
	for i := 0; i < 500; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		if i%5 == 0 && i > 0 {
			h = hashes[i/5] // force hash collisions with earlier ids
		}
		id, found := gt.insertOrGet(h, func(id int32) bool { return false })
		if found {
			t.Fatalf("insert %d: reported found for eq-always-false", i)
		}
		if id != int32(i) {
			t.Fatalf("insert %d: got id %d, want dense sequential ids", i, id)
		}
		hashes = append(hashes, h)
	}
	// Every admitted id must be retrievable after all the growth.
	for i, h := range hashes {
		id, found := gt.insertOrGet(h, func(id int32) bool { return id == int32(i) })
		if !found || id != int32(i) {
			t.Fatalf("lookup %d: got (%d, %v), want (%d, true)", i, id, found, i)
		}
	}
}

// TestInsertRowsRoundRobin asserts NoDistKey tables spread bulk loads
// evenly across segments instead of piling rows onto one.
func TestInsertRowsRoundRobin(t *testing.T) {
	c := NewCluster(Options{Segments: 4})
	if _, err := c.CreateTable("t", Schema{"v"}, NoDistKey); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 42)
	for i := range rows {
		rows[i] = Row{I(int64(i))}
	}
	if err := c.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("t")
	for seg, part := range segmentRows(tab) {
		n := len(part)
		if n < 10 || n > 11 { // 42 rows over 4 segments
			t.Errorf("segment %d holds %d rows, want 10 or 11", seg, n)
		}
	}
	// A second batch continues the rotation from where the first stopped.
	if err := c.InsertRows("t", rows[:6]); err != nil {
		t.Fatal(err)
	}
	for seg, part := range segmentRows(tab) {
		if len(part) != 12 {
			t.Errorf("segment %d holds %d rows after 48, want 12", seg, len(part))
		}
	}
}

// TestInsertRowsRoundRobinAcrossStatements checks the rotation continues
// across statements of any size: the cursor is the table's stored row
// count, so 8·k rows inserted one at a time, or in a mix of batches and
// single rows, land k on each of 8 segments.
func TestInsertRowsRoundRobinAcrossStatements(t *testing.T) {
	const segs, k = 8, 8
	for _, sizes := range [][]int{
		repeatInts(1, segs*k),
		{5, 1, 1, 1, 13, 1, 2, 1, 7, 1, 1, 30}, // 64 rows
	} {
		c := NewCluster(Options{Segments: segs})
		if _, err := c.CreateTable("t", Schema{"v"}, NoDistKey); err != nil {
			t.Fatal(err)
		}
		v := int64(0)
		for _, n := range sizes {
			batch := make([]Row, n)
			for i := range batch {
				batch[i] = Row{I(v)}
				v++
			}
			if err := c.InsertRows("t", batch); err != nil {
				t.Fatal(err)
			}
		}
		tab, _ := c.Table("t")
		for seg, part := range segmentRows(tab) {
			if len(part) != k {
				t.Errorf("batches %v: segment %d holds %d rows, want %d", sizes, seg, len(part), k)
			}
		}
	}
}

func repeatInts(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
