package sql

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dbcc/internal/engine"
)

// TestInsertSelectIsOneStatement checks that INSERT … SELECT is one engine
// statement: one query, one gauge tick and one insert trace record, with
// the write volume and the stored rows of a plain insert of the same rows.
func TestInsertSelectIsOneStatement(t *testing.T) {
	s := newSession(t)
	c := s.Cluster()
	var edges [][2]int64
	for i := int64(0); i < 60; i++ {
		edges = append(edges, [2]int64{i, (i * 7) % 60})
	}
	loadEdges(t, s, "a", edges)
	loadEdges(t, s, "b", nil)
	loadEdges(t, s, "want", nil)
	const sel = "select v2, v1 from a where v1 > 10"
	_, rows, err := s.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows("want", rows); err != nil {
		t.Fatal(err)
	}

	st0, cs0, tr0 := c.Stats(), c.ConcurrencyStats(), len(c.Trace())
	n, err := s.Exec("insert into b " + sel)
	if err != nil {
		t.Fatal(err)
	}
	st, cs, recs := c.Stats(), c.ConcurrencyStats(), c.Trace()
	if n != int64(len(rows)) {
		t.Fatalf("insert reported %d rows, want %d", n, len(rows))
	}
	if d := st.Queries - st0.Queries; d != 1 {
		t.Errorf("Stats.Queries moved by %d, want 1", d)
	}
	if d := cs.Total - cs0.Total; d != 1 {
		t.Errorf("ConcurrencyStats.Total moved by %d, want 1", d)
	}
	if d := st.RowsWritten - st0.RowsWritten; d != n {
		t.Errorf("RowsWritten moved by %d, want %d", d, n)
	}
	if d := st.BytesWritten - st0.BytesWritten; d != n*2*engine.DatumSize {
		t.Errorf("BytesWritten moved by %d, want %d", d, n*2*engine.DatumSize)
	}
	if len(recs) != tr0+1 {
		t.Fatalf("trace grew by %d records, want 1", len(recs)-tr0)
	}
	if rec := recs[len(recs)-1]; rec.Kind != "insert" || rec.Target != "b" || rec.Rows != n || rec.Root == nil {
		t.Errorf("trace record %s %q rows=%d root=%v, want insert \"b\" rows=%d with a profile",
			rec.Kind, rec.Target, rec.Rows, rec.Root != nil, n)
	}
	got, _ := c.ReadAll("b")
	want, _ := c.ReadAll("want")
	if !reflect.DeepEqual(got, want) {
		t.Error("INSERT … SELECT stored its rows differently from InsertRows of the same rows")
	}
}

// TestFailedDeleteRemovesNothing runs a DELETE whose predicate panics
// part-way through the table: the statement fails and leaves the rows, the
// live-space accounting and the component index as they were.
func TestFailedDeleteRemovesNothing(t *testing.T) {
	s := newSession(t)
	c := s.Cluster()
	c.RegisterUDF("boom", func(args []engine.Datum) engine.Datum {
		if args[0].Int == 77 {
			panic("boom on 77")
		}
		return engine.I(1)
	})
	var edges [][2]int64
	for i := int64(0); i < 200; i++ {
		edges = append(edges, [2]int64{i, i + 1000})
	}
	loadEdges(t, s, "a", edges)
	if _, err := s.Exec("create component index on a"); err != nil {
		t.Fatal(err)
	}
	x, _ := c.ComponentIndex("a")
	before, labels, seq := c.Stats(), x.Labels(), x.Seq()

	if _, err := s.Exec("delete from a where boom(v1) = 1"); err == nil {
		t.Fatal("DELETE with a panicking predicate succeeded")
	}
	tab, _ := c.Table("a")
	if tab.Rows() != 200 {
		t.Errorf("failed DELETE left %d rows, want 200", tab.Rows())
	}
	after := c.Stats()
	if after.LiveBytes != tab.Bytes() || after.LiveBytes != before.LiveBytes {
		t.Errorf("LiveBytes %d, table bytes %d, before %d: want all equal", after.LiveBytes, tab.Bytes(), before.LiveBytes)
	}
	if after.Queries != before.Queries {
		t.Errorf("failed DELETE counted as a query (%d -> %d)", before.Queries, after.Queries)
	}
	if x.Stale() || x.Seq() != seq || !reflect.DeepEqual(x.Labels(), labels) {
		t.Error("failed DELETE changed the component index")
	}
	if cs := c.ConcurrencyStats(); cs.Active != 0 {
		t.Errorf("%d statements still active", cs.Active)
	}
}

// TestDeleteHonoursDeadline runs a DELETE whose predicate takes far longer
// than the cluster's per-statement timeout: the statement fails with the
// deadline error and leaves the table and the live-space accounting as
// they were.
func TestDeleteHonoursDeadline(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 4, QueryTimeout: time.Millisecond})
	defer c.Close()
	c.RegisterUDF("slow", func(args []engine.Datum) engine.Datum {
		time.Sleep(20 * time.Microsecond)
		return args[0]
	})
	s := NewSession(c)
	var edges [][2]int64
	for i := int64(0); i < 2000; i++ {
		edges = append(edges, [2]int64{i, i + 5000})
	}
	loadEdges(t, s, "a", edges)
	tab, _ := c.Table("a")
	before := c.Stats()

	start := time.Now()
	_, err := s.Exec("delete from a where slow(v1) = 5")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DELETE past its deadline returned %v after %v, want a deadline error", err, time.Since(start))
	}
	tab, _ = c.Table("a")
	if tab.Rows() != 2000 {
		t.Errorf("DELETE past its deadline left %d rows, want 2000", tab.Rows())
	}
	if after := c.Stats(); after.LiveBytes != tab.Bytes() || after.LiveBytes != before.LiveBytes {
		t.Errorf("LiveBytes %d, table bytes %d, before %d: want all equal", after.LiveBytes, tab.Bytes(), before.LiveBytes)
	}
	if cs := c.ConcurrencyStats(); cs.Active != 0 {
		t.Errorf("%d statements still active", cs.Active)
	}
}
