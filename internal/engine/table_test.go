package engine

import (
	"sync"
	"testing"

	"dbcc/internal/xrand"
)

// TestCreateTableAsPublishesByReference pins chunk-backed storage: a
// CREATE TABLE AS on the source's own distribution key stores the very
// chunks the source holds, and a published table reads back bit-identical
// after later statements recycle the pooled i32/i64 scratch buffers, after
// a concurrent insert into the source it aliases, and after that source is
// dropped.
func TestCreateTableAsPublishesByReference(t *testing.T) {
	c := NewCluster(Options{Segments: 4})
	rows := randRows(xrand.New(61), 400) // NULLs in both columns
	mustCreate(t, c, "a", Schema{"k", "x"}, 0, rows)
	mustCreate(t, c, "churn", Schema{"k", "x"}, 0, randRows(xrand.New(67), 400))
	// b aliases a's chunks; s is the output of a placement shuffle, the
	// operator whose scratch buckets live in pooled memory.
	if _, err := c.CreateTableAs("b", Scan("a"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTableAs("s", Scan("a"), 1); err != nil {
		t.Fatal(err)
	}
	ta, _ := c.Table("a")
	tb, _ := c.Table("b")
	for seg, list := range tb.snapshotParts() {
		src := ta.snapshotParts()[seg]
		if len(list) != len(src) || (len(list) == 1 && list[0] != src[0]) {
			t.Fatalf("segment %d: b holds chunks %p, a holds %p; want the same chunks", seg, list, src)
		}
	}
	want := map[string][]Row{}
	for _, name := range []string{"b", "s"} {
		got, err := c.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = got
	}
	check := func(stage string) {
		t.Helper()
		for name, w := range want {
			got, err := c.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(w) {
				t.Fatalf("%s: %s has %d rows, want %d", stage, name, len(got), len(w))
			}
			for i := range w {
				for col := range w[i] {
					if got[i][col] != w[i][col] {
						t.Fatalf("%s: %s row %d = %v, want %v", stage, name, i, got[i], w[i])
					}
				}
			}
		}
	}

	// 50 statements that take and return the scratch pools: shuffles
	// (radix buckets), filters (selection vectors), joins (match lists)
	// and DISTINCT.
	churn := []Plan{
		Distinct(Scan("churn")),
		Filter(Scan("churn"), Bin(OpLt, Col(1), Const(25))),
		GroupBy(Scan("churn"), []int{1}, Agg{Op: AggMin, Arg: Col(0), Name: "m"}),
		Join(Scan("churn"), Scan("churn"), 1, 0),
		Join(Scan("churn"), Scan("a"), 0, 1),
	}
	for i := 0; i < 50; i++ {
		if _, _, err := c.Query(churn[i%len(churn)]); err != nil {
			t.Fatal(err)
		}
	}
	check("after pool reuse")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := c.InsertRows("a", randRows(xrand.New(uint64(i)), 16)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		check("during inserts into the source")
	}
	wg.Wait()
	check("after inserts into the source")

	if err := c.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	check("after dropping the source")
}

// TestAppendChunkMerges checks the append policy: a segment's chunk list
// stays in insertion order, sizes stay roughly geometric (O(log rows)
// chunks), and an append never edits the list it was given.
func TestAppendChunkMerges(t *testing.T) {
	var list []*Chunk
	var want []Row
	for i := 0; i < 300; i++ {
		rows := make([]Row, 1+i%7)
		for j := range rows {
			rows[j] = Row{I(int64(len(want) + j))}
		}
		want = append(want, rows...)
		before := append([]*Chunk(nil), list...)
		next := appendChunk(list, rowsToChunk(rows, 1))
		for j := range before {
			if list[j] != before[j] {
				t.Fatalf("append %d edited the previous list at %d", i, j)
			}
		}
		list = next
		if n := len(list); n > 1 && 2*list[n-1].length >= list[n-2].length {
			t.Fatalf("append %d left mergeable tail chunks of %d and %d rows", i, list[n-2].length, list[n-1].length)
		}
	}
	if len(list) > 12 {
		t.Fatalf("%d rows are held in %d chunks, want O(log rows)", len(want), len(list))
	}
	got := chunkToRows(list...)
	if len(got) != len(want) {
		t.Fatalf("list holds %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}
