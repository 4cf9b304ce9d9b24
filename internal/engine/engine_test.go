package engine

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// newTestCluster returns a small cluster for tests.
func newTestCluster(t *testing.T, segs int) *Cluster {
	t.Helper()
	return NewCluster(Options{Segments: segs})
}

// TestRegisterFlags checks the shared cluster flags on a fresh FlagSet:
// their defaults, and that each one lands in its Options field.
func TestRegisterFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want Options
	}{
		{"", Options{Segments: 8, Faults: FaultConfig{Seed: 1}}},
		{"-fault-rate 0.05", Options{Segments: 8, Faults: FaultConfig{Seed: 1, FailureRate: 0.05}}},
		{"-segments 3 -fault-seed 9", Options{Segments: 3, Faults: FaultConfig{Seed: 9}}},
		{"-timeout 2s -mem-budget 65536", Options{
			Segments: 8, QueryTimeout: 2 * time.Second, MemoryBudget: 65536, Faults: FaultConfig{Seed: 1},
		}},
	} {
		var got Options
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		got.RegisterFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got != tc.want {
			t.Errorf("%q: got %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// mustCreate loads rows into a fresh table.
func mustCreate(t *testing.T, c *Cluster, name string, schema Schema, distKey int, rows []Row) {
	t.Helper()
	if _, err := c.CreateTable(name, schema, distKey); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows(name, rows); err != nil {
		t.Fatal(err)
	}
}

// pairs builds two-column rows from int64 pairs.
func pairs(vals ...[2]int64) []Row {
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{I(v[0]), I(v[1])}
	}
	return rows
}

// sortRows orders rows lexicographically for comparison (NULLs first).
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			switch {
			case a[k].Null && b[k].Null:
			case a[k].Null:
				return true
			case b[k].Null:
				return false
			case a[k].Int != b[k].Int:
				return a[k].Int < b[k].Int
			}
		}
		return false
	})
}

// eqRows compares row multisets.
func eqRows(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	g := append([]Row(nil), got...)
	w := append([]Row(nil), want...)
	sortRows(g)
	sortRows(w)
	for i := range g {
		for k := range g[i] {
			if g[i][k] != w[i][k] {
				t.Fatalf("row %d differs: got %v want %v", i, g[i], w[i])
			}
		}
	}
}

func TestCreateInsertRead(t *testing.T) {
	c := newTestCluster(t, 4)
	rows := pairs([2]int64{1, 2}, [2]int64{3, 4}, [2]int64{5, 6})
	mustCreate(t, c, "e", Schema{"v", "w"}, 0, rows)
	got, err := c.ReadAll("e")
	if err != nil {
		t.Fatal(err)
	}
	eqRows(t, got, rows)
}

// segmentRows returns a table's stored rows segment by segment, for tests
// that check placement.
func segmentRows(tab *Table) [][]Row {
	parts := tab.snapshotParts()
	out := make([][]Row, len(parts))
	for seg, list := range parts {
		out[seg] = chunkToRows(list...)
	}
	return out
}

func TestDistributionInvariant(t *testing.T) {
	// Every row must live on the segment its distribution key hashes to;
	// NULL keys live on segment 0.
	c := newTestCluster(t, 5)
	var rows []Row
	for i := int64(0); i < 1000; i++ {
		key := I(i)
		if i%50 == 0 {
			key = NullDatum
		}
		rows = append(rows, Row{key, I(i * 7)})
	}
	mustCreate(t, c, "e", Schema{"v", "w"}, 0, rows)
	tab, _ := c.Table("e")
	total := 0
	for seg, part := range segmentRows(tab) {
		total += len(part)
		for _, row := range part {
			if want := segmentOf(c, row, 0); want != seg {
				t.Fatalf("row %v on segment %d, want %d", row, seg, want)
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("table holds %d rows, want %d", total, len(rows))
	}
}

// segmentOf is the segment the shuffle's router (routeChunk) places row on
// when the rows are distributed by column key.
func segmentOf(c *Cluster, row Row, key int) int {
	var dest [1]int32
	routeChunk(rowsToChunk([]Row{row}, len(row)), key, c.segments, dest[:])
	return int(dest[0])
}

func TestDDLErrors(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "a", Schema{"v"}, 0, nil)
	if _, err := c.CreateTable("a", Schema{"v"}, 0); err == nil {
		t.Error("duplicate CreateTable succeeded")
	}
	if err := c.DropTable("missing"); err == nil {
		t.Error("DropTable of missing table succeeded")
	}
	if err := c.RenameTable("missing", "x"); err == nil {
		t.Error("RenameTable of missing table succeeded")
	}
	mustCreate(t, c, "b", Schema{"v"}, 0, nil)
	if err := c.RenameTable("a", "b"); err == nil {
		t.Error("RenameTable onto existing table succeeded")
	}
	if err := c.RenameTable("a", "c"); err != nil {
		t.Errorf("RenameTable failed: %v", err)
	}
	if _, ok := c.Table("c"); !ok {
		t.Error("renamed table not found")
	}
	if _, ok := c.Table("a"); ok {
		t.Error("old name still present after rename")
	}
}

func TestFilterProject(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, "e", Schema{"v", "w"}, 0,
		pairs([2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30}))
	p := Project(
		Filter(Scan("e"), Bin(OpGt, Col(1), Const(15))),
		ProjCol{Expr: Col(0), Name: "v"},
		ProjCol{Expr: Bin(OpAdd, Col(1), Const(1)), Name: "w1"},
	)
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	eqRows(t, rows, pairs([2]int64{2, 21}, [2]int64{3, 31}))
}

func TestUnionAll(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, "a", Schema{"v", "w"}, 0, pairs([2]int64{1, 2}))
	mustCreate(t, c, "b", Schema{"v", "w"}, 0, pairs([2]int64{1, 2}, [2]int64{3, 4}))
	_, rows, err := c.Query(UnionAll(Scan("a"), Scan("b")))
	if err != nil {
		t.Fatal(err)
	}
	eqRows(t, rows, pairs([2]int64{1, 2}, [2]int64{1, 2}, [2]int64{3, 4}))
}

func TestDistinct(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "e", Schema{"v", "w"}, 0,
		pairs([2]int64{1, 2}, [2]int64{1, 2}, [2]int64{2, 1}, [2]int64{1, 3}))
	_, rows, err := c.Query(Distinct(Scan("e")))
	if err != nil {
		t.Fatal(err)
	}
	eqRows(t, rows, pairs([2]int64{1, 2}, [2]int64{2, 1}, [2]int64{1, 3}))
}

func TestDistinctWithNulls(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "e", Schema{"v", "w"}, NoDistKey, []Row{
		{I(1), NullDatum}, {I(1), NullDatum}, {NullDatum, NullDatum},
	})
	_, rows, err := c.Query(Distinct(Scan("e")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("distinct kept %d rows, want 2: %v", len(rows), rows)
	}
}

func TestGroupByMin(t *testing.T) {
	for _, profile := range []Profile{ProfileMPP, ProfileSparkSQL} {
		c := NewCluster(Options{Segments: 4, Profile: profile})
		mustCreate(t, c, "e", Schema{"v", "w"}, 0,
			pairs([2]int64{1, 10}, [2]int64{1, 5}, [2]int64{2, 20}, [2]int64{2, 25}, [2]int64{3, 3}))
		p := GroupBy(Scan("e"), []int{0},
			Agg{Op: AggMin, Arg: Col(1), Name: "m"},
			Agg{Op: AggMax, Arg: Col(1), Name: "x"},
			Agg{Op: AggCount, Name: "n"})
		_, rows, err := c.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		want := []Row{
			{I(1), I(5), I(10), I(2)},
			{I(2), I(20), I(25), I(2)},
			{I(3), I(3), I(3), I(1)},
		}
		eqRows(t, rows, want)
	}
}

func TestGroupByGlobal(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "e", Schema{"v", "w"}, 0,
		pairs([2]int64{1, 10}, [2]int64{2, 5}, [2]int64{3, 30}))
	p := GroupBy(Scan("e"), nil,
		Agg{Op: AggCount, Name: "n"},
		Agg{Op: AggMin, Arg: Col(1), Name: "m"})
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 3 || rows[0][1].Int != 5 {
		t.Fatalf("global aggregate = %v, want [3 5]", rows)
	}
}

func TestGroupByMinIgnoresNulls(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "e", Schema{"v", "w"}, NoDistKey, []Row{
		{I(1), NullDatum}, {I(1), I(7)}, {I(2), NullDatum},
	})
	p := GroupBy(Scan("e"), []int{0}, Agg{Op: AggMin, Arg: Col(1), Name: "m"})
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{I(1), I(7)}, {I(2), NullDatum}}
	eqRows(t, rows, want)
}

func TestInnerJoin(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "e", Schema{"v", "w"}, 0,
		pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{4, 5}))
	mustCreate(t, c, "r", Schema{"v", "rep"}, 0,
		pairs([2]int64{1, 100}, [2]int64{2, 200}, [2]int64{3, 300}))
	p := Join(Scan("e"), Scan("r"), 0, 0)
	schema, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 4 {
		t.Fatalf("join schema %v", schema)
	}
	want := []Row{
		{I(1), I(2), I(1), I(100)},
		{I(2), I(3), I(2), I(200)},
	}
	eqRows(t, rows, want)
}

func TestJoinDuplicateKeys(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, "l", Schema{"k", "a"}, 0, pairs([2]int64{1, 10}, [2]int64{1, 11}))
	mustCreate(t, c, "r", Schema{"k", "b"}, 0, pairs([2]int64{1, 20}, [2]int64{1, 21}))
	_, rows, err := c.Query(Join(Scan("l"), Scan("r"), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("cross-match produced %d rows, want 4", len(rows))
	}
}

func TestLeftOuterJoin(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "l", Schema{"v", "r"}, 0,
		pairs([2]int64{1, 5}, [2]int64{2, 6}))
	mustCreate(t, c, "rr", Schema{"v", "rep"}, 0,
		pairs([2]int64{5, 50}))
	// Join l.r = rr.v — vertex 1's representative 5 has a new rep, 2's (6) does not.
	p := LeftJoin(Scan("l"), Scan("rr"), 1, 0)
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{I(1), I(5), I(5), I(50)},
		{I(2), I(6), NullDatum, NullDatum},
	}
	eqRows(t, rows, want)
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "l", Schema{"k"}, NoDistKey, []Row{{NullDatum}, {I(1)}})
	mustCreate(t, c, "r", Schema{"k"}, NoDistKey, []Row{{NullDatum}, {I(1)}})
	_, rows, err := c.Query(Join(Scan("l"), Scan("r"), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("NULL keys matched: %v", rows)
	}
}

func TestCreateTableAsAndStats(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "e", Schema{"v", "w"}, 0,
		pairs([2]int64{1, 2}, [2]int64{3, 4}))
	base := c.Stats()
	n, err := c.CreateTableAs("e2", Scan("e"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rowcount %d, want 2", n)
	}
	s := c.Stats()
	if s.Queries != base.Queries+1 {
		t.Errorf("queries %d, want %d", s.Queries, base.Queries+1)
	}
	wantBytes := int64(2 * 2 * DatumSize)
	if s.BytesWritten != base.BytesWritten+wantBytes {
		t.Errorf("bytes written %d, want +%d", s.BytesWritten-base.BytesWritten, wantBytes)
	}
	if s.LiveBytes != base.LiveBytes+wantBytes {
		t.Errorf("live bytes %d", s.LiveBytes)
	}
	if err := c.DropTable("e2"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().LiveBytes; got != base.LiveBytes {
		t.Errorf("live bytes after drop %d, want %d", got, base.LiveBytes)
	}
	if got := c.Stats().PeakBytes; got != base.LiveBytes+wantBytes {
		t.Errorf("peak bytes %d, want %d", got, base.LiveBytes+wantBytes)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "t", Schema{"a", "b", "x"}, 0, []Row{
		{I(1), I(1), I(5)}, {I(1), I(1), I(3)}, {I(1), I(2), I(9)}, {I(2), I(1), I(7)},
	})
	p := GroupBy(Scan("t"), []int{0, 1}, Agg{Op: AggMin, Arg: Col(2), Name: "m"})
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{I(1), I(1), I(3)},
		{I(1), I(2), I(9)},
		{I(2), I(1), I(7)},
	}
	eqRows(t, rows, want)
}

// TestStatsCostIndependentOfHistory pins Stats as a fixed-size snapshot:
// after thousands of statements without a ResetStats, taking one still
// allocates nothing (the engine keeps no per-statement log beyond the
// bounded trace ring).
func TestStatsCostIndependentOfHistory(t *testing.T) {
	c := newTestCluster(t, 2)
	if _, err := c.CreateTable("t", Schema{"a"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := c.InsertRows("t", []Row{{I(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if q := c.Stats().Queries; q != 2000 {
		t.Fatalf("Queries = %d, want 2000", q)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Stats() }); allocs != 0 {
		t.Fatalf("Stats() allocates %.1f times after 2000 statements, want 0", allocs)
	}
}

// assertLiveBytesMatchCatalog checks the one accounting rule: between
// statements, LiveBytes is the sum of the catalog's table sizes.
func assertLiveBytesMatchCatalog(t *testing.T, c *Cluster, after string) {
	t.Helper()
	var sum int64
	for _, name := range c.TableNames() {
		tab, _ := c.Table(name)
		sum += tab.Bytes()
	}
	if live := c.Stats().LiveBytes; live != sum {
		t.Fatalf("after %s: LiveBytes = %d, catalog holds %d bytes", after, live, sum)
	}
}

func TestLiveBytesMatchesCatalog(t *testing.T) {
	c := newTestCluster(t, 3)
	steps := []struct {
		name string
		run  func() error
	}{
		{"CREATE", func() error { _, err := c.CreateTable("e", Schema{"v", "w"}, 0); return err }},
		{"INSERT", func() error {
			return c.InsertRows("e", pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 4}, [2]int64{7, 8}))
		}},
		{"CTAS", func() error { _, err := c.CreateTableAs("t1", Scan("e"), 1); return err }},
		{"cancelled CTAS", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := c.CreateTableAsCtx(ctx, "t2", Scan("e"), 0); err == nil {
				return fmt.Errorf("CTAS under a cancelled context succeeded")
			}
			return nil
		}},
		{"DELETE", func() error {
			_, err := c.DeleteRows(context.Background(), "t1", func(r Row) bool { return r[0].Int != 2 })
			return err
		}},
		{"RENAME", func() error { return c.RenameTable("t1", "t3") }},
		{"INSERT after RENAME", func() error { return c.InsertRows("t3", pairs([2]int64{9, 9})) }},
		{"DROP", func() error { return c.DropTable("e") }},
		{"ResetStats", func() error { c.ResetStats(); return nil }},
		{"DROP last", func() error { return c.DropTable("t3") }},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		assertLiveBytesMatchCatalog(t, c, st.name)
	}
	if live := c.Stats().LiveBytes; live != 0 {
		t.Fatalf("empty catalog holds LiveBytes = %d", live)
	}
}

func TestSortAndLimit(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "t", Schema{"a", "b"}, 0, []Row{
		{I(3), I(1)}, {I(1), NullDatum}, {I(2), I(5)}, {I(1), I(9)},
	})
	// Ascending by a, then descending by b; NULLs first within a.
	p := Sort(Scan("t"), []SortKey{{Col: 0}, {Col: 1, Desc: true}}, -1)
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].Int != 1 || rows[1][0].Int != 1 || rows[2][0].Int != 2 || rows[3][0].Int != 3 {
		t.Fatalf("sort order wrong: %v", rows)
	}
	// Descending within a=1: 9 then NULL.
	if rows[0][1].Null || rows[0][1].Int != 9 || !rows[1][1].Null {
		t.Fatalf("secondary sort wrong: %v %v", rows[0], rows[1])
	}
	// Limit.
	_, rows, err = c.Query(Sort(Scan("t"), []SortKey{{Col: 0}}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("limit kept %d rows", len(rows))
	}
}

func TestSumAggregateEngine(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, "t", Schema{"k", "x"}, 0, []Row{
		{I(1), I(10)}, {I(1), I(5)}, {I(1), NullDatum}, {I(2), NullDatum},
	})
	p := GroupBy(Scan("t"), []int{0}, Agg{Op: AggSum, Arg: Col(1), Name: "s"})
	_, rows, err := c.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{I(1), I(15)}, {I(2), NullDatum}}
	eqRows(t, rows, want)
}

func TestCreateTableAsDuplicate(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "e", Schema{"v"}, 0, nil)
	if _, err := c.CreateTableAs("e", Scan("e"), 0); err == nil {
		t.Fatal("CreateTableAs over existing table succeeded")
	}
}

func TestLeastCoalesce(t *testing.T) {
	row := Row{I(5), NullDatum, I(3)}
	if got := Least(Col(0), Col(1), Col(2)).Eval(row); got.Null || got.Int != 3 {
		t.Errorf("least = %v, want 3", got)
	}
	if got := Least(Col(1)).Eval(row); !got.Null {
		t.Errorf("least of all NULL = %v, want NULL", got)
	}
	if got := Coalesce(Col(1), Col(0)).Eval(row); got.Null || got.Int != 5 {
		t.Errorf("coalesce = %v, want 5", got)
	}
	if got := Coalesce(Col(1), Col(1)).Eval(row); !got.Null {
		t.Errorf("coalesce of NULLs = %v, want NULL", got)
	}
}

func TestUDF(t *testing.T) {
	c := newTestCluster(t, 2)
	c.RegisterUDF("double", func(args []Datum) Datum {
		if args[0].Null {
			return NullDatum
		}
		return I(args[0].Int * 2)
	})
	expr, err := c.CallUDF("double", Col(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := expr.Eval(Row{I(21)}); got.Int != 42 {
		t.Fatalf("udf = %v", got)
	}
	if _, err := c.CallUDF("missing"); err == nil {
		t.Fatal("missing UDF lookup succeeded")
	}
}

func TestSegmentCountIndependence(t *testing.T) {
	// Query results must not depend on the number of segments.
	rows := pairs([2]int64{1, 10}, [2]int64{1, 5}, [2]int64{2, 7}, [2]int64{9, 1},
		[2]int64{9, 4}, [2]int64{2, 2})
	var ref []Row
	for _, segs := range []int{1, 2, 7, 16} {
		c := newTestCluster(t, segs)
		mustCreate(t, c, "e", Schema{"v", "w"}, 0, rows)
		p := GroupBy(Scan("e"), []int{0}, Agg{Op: AggMin, Arg: Col(1), Name: "m"})
		_, got, err := c.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		eqRows(t, got, ref)
	}
}

func TestShuffleBytesAccounting(t *testing.T) {
	c := newTestCluster(t, 4)
	var rows []Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, Row{I(i), I(i + 1)})
	}
	mustCreate(t, c, "e", Schema{"v", "w"}, 0, rows)
	// Re-distributing by column 1 must move some rows.
	if _, err := c.CreateTableAs("e2", Scan("e"), 1); err != nil {
		t.Fatal(err)
	}
	if c.Stats().ShuffleBytes == 0 {
		t.Error("redistribution recorded no shuffle traffic")
	}
}
