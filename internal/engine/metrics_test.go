package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// analyzeJoinGroupBy runs the shared join + group-by profiling query:
// edges joined to labels on the source vertex, grouped by label.
func analyzeJoinGroupBy(t *testing.T, c *Cluster) (Schema, []Row, *OpMetrics) {
	t.Helper()
	plan := GroupBy(
		Join(Scan("edges"), Scan("labels"), 0, 0),
		[]int{3},
		Agg{Op: AggCount, Name: "n"},
	)
	schema, rows, root, err := c.QueryAnalyzeCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return schema, rows, root
}

func loadJoinTables(t *testing.T, c *Cluster) {
	t.Helper()
	mustCreate(t, c, "edges", Schema{"v1", "v2"}, 0,
		pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 4}, [2]int64{4, 1}, [2]int64{5, 6}))
	mustCreate(t, c, "labels", Schema{"v", "l"}, 0,
		pairs([2]int64{1, 10}, [2]int64{2, 10}, [2]int64{3, 10}, [2]int64{4, 10},
			[2]int64{5, 20}, [2]int64{6, 20}))
}

func TestQueryAnalyzeMetrics(t *testing.T) {
	c := newTestCluster(t, 4)
	loadJoinTables(t, c)
	_, rows, root := analyzeJoinGroupBy(t, c)

	if root == nil {
		t.Fatal("QueryAnalyze returned nil metrics")
	}
	if root.Rows != int64(len(rows)) {
		t.Fatalf("root.Rows = %d, result has %d rows", root.Rows, len(rows))
	}
	if root.Elapsed <= 0 {
		t.Fatalf("root.Elapsed = %v, want > 0", root.Elapsed)
	}
	// The profile tree mirrors the plan: GroupBy over HashJoin over two
	// Scans, with per-segment row counts summing to the operator total.
	var walk func(m *OpMetrics)
	ops := map[string]int{}
	walk = func(m *OpMetrics) {
		ops[m.Op]++
		if len(m.SegRows) != c.Segments() {
			t.Fatalf("%s: %d segment row counts, want %d", m.Op, len(m.SegRows), c.Segments())
		}
		var sum int64
		for _, n := range m.SegRows {
			sum += n
		}
		if sum != m.Rows {
			t.Fatalf("%s: segment rows sum to %d, operator total is %d", m.Op, sum, m.Rows)
		}
		if m.Rows > 0 && m.Bytes <= 0 {
			t.Fatalf("%s: %d rows but %d bytes", m.Op, m.Rows, m.Bytes)
		}
		for _, ch := range m.Children {
			walk(ch)
		}
	}
	walk(root)
	if ops["GroupBy"] != 1 || ops["HashJoin"] != 1 || ops["Scan"] != 2 {
		t.Fatalf("operator census %v, want 1 GroupBy, 1 HashJoin, 2 Scans", ops)
	}
}

func TestQueryAnalyzeShuffleAccounting(t *testing.T) {
	c := newTestCluster(t, 4)
	loadJoinTables(t, c)
	before := c.Stats().ShuffleBytes
	_, _, root := analyzeJoinGroupBy(t, c)
	moved := c.Stats().ShuffleBytes - before
	if root.TotalShuffle() != moved {
		t.Fatalf("per-operator shuffle sums to %d, cluster counter moved by %d",
			root.TotalShuffle(), moved)
	}
}

func TestTraceRing(t *testing.T) {
	c := NewCluster(Options{Segments: 2})
	c.traceCap = 4
	mustCreate(t, c, "tt", Schema{"a", "b"}, 0, pairs([2]int64{1, 1}))
	// The insert is one record; six queries overflow the 4-slot ring.
	for i := 0; i < 6; i++ {
		if _, _, err := c.Query(Scan("tt")); err != nil {
			t.Fatal(err)
		}
	}
	recs := c.Trace()
	if len(recs) != 4 {
		t.Fatalf("trace holds %d records, want capacity 4", len(recs))
	}
	for i, r := range recs {
		if i > 0 && r.Seq != recs[i-1].Seq+1 {
			t.Fatalf("trace seqs not consecutive ascending: %d after %d", r.Seq, recs[i-1].Seq)
		}
	}
	// 7 statements total (1 insert + 6 selects), seqs 0..6; the ring keeps
	// the last four.
	if got, want := recs[len(recs)-1].Seq, int64(6); got != want {
		t.Fatalf("newest trace seq = %d, want %d", got, want)
	}
	if recs[0].Seq != 3 {
		t.Fatalf("oldest trace seq = %d, want 3", recs[0].Seq)
	}
}

func TestTraceRecordKinds(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "tt", Schema{"a", "b"}, 0, pairs([2]int64{1, 2}))
	if _, err := c.CreateTableAs("tt2", Scan("tt"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(Scan("tt2")); err != nil {
		t.Fatal(err)
	}
	recs := c.Trace()
	if len(recs) != 3 {
		t.Fatalf("trace holds %d records, want 3 (insert, create, select)", len(recs))
	}
	if recs[0].Kind != "insert" || recs[0].Target != "tt" {
		t.Fatalf("record 0 = %s %q, want insert tt", recs[0].Kind, recs[0].Target)
	}
	if recs[1].Kind != "create" || recs[1].Target != "tt2" || recs[1].Root == nil {
		t.Fatalf("record 1 = %s %q (root %v), want create tt2 with a profile", recs[1].Kind, recs[1].Target, recs[1].Root)
	}
	if recs[2].Kind != "select" || recs[2].Rows != 1 {
		t.Fatalf("record 2 = %s rows=%d, want select rows=1", recs[2].Kind, recs[2].Rows)
	}
	if !strings.Contains(recs[2].Plan, "Scan(tt2)") {
		t.Fatalf("select plan %q does not mention Scan(tt2)", recs[2].Plan)
	}
}

// TestTracePlanMatchesString pins the lazily rendered trace plan: for
// CTAS, SELECT, INSERT … SELECT and EXPLAIN ANALYZE, the Plan a Trace
// record carries is the executed plan's String, whether Trace reads the
// slot right after its statement, later, or after the ring has wrapped
// over slots an earlier Trace already rendered.
func TestTracePlanMatchesString(t *testing.T) {
	c := NewCluster(Options{Segments: 4})
	c.traceCap = 5
	mustCreate(t, c, "tt", Schema{"a", "b"}, 0, pairs([2]int64{1, 2}, [2]int64{3, 4}))
	if _, err := c.CreateTable("sink", Schema{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sel := Filter(Scan("tt"), Bin(OpGt, Col(1), Const(2)))
	stmts := []struct {
		p   Plan
		run func(i int, p Plan) error
	}{
		{GroupBy(Scan("tt"), []int{0}, Agg{Op: AggMin, Arg: Col(1), Name: "m"}), func(i int, p Plan) error {
			_, err := c.CreateTableAs(fmt.Sprintf("c%d", i), p, 0)
			return err
		}},
		{sel, func(_ int, p Plan) error { _, _, err := c.Query(p); return err }},
		{Project(Scan("tt"), ProjCol{Expr: Col(1), Name: "a"}, ProjCol{Expr: Col(0), Name: "b"}), func(_ int, p Plan) error {
			_, err := c.InsertSelectCtx(ctx, "sink", p)
			return err
		}},
		{Distinct(sel), func(_ int, p Plan) error { _, _, _, err := c.QueryAnalyzeCtx(ctx, p); return err }},
	}
	want := map[int64]string{}
	check := func() {
		t.Helper()
		for _, rec := range c.Trace() {
			if w, ok := want[rec.Seq]; ok && rec.Plan != w {
				t.Fatalf("record %d (%s) plan %q, want %q", rec.Seq, rec.Kind, rec.Plan, w)
			}
		}
	}
	for i := 0; i < 23; i++ {
		st := stmts[i%len(stmts)]
		if err := st.run(i, st.p); err != nil {
			t.Fatal(err)
		}
		want[c.traceSeq-1] = st.p.String()
		if i%3 == 0 {
			check()
		}
	}
	check()
	if recs := c.Trace(); len(recs) != c.traceCap || recs[0].Seq <= int64(c.traceCap) {
		t.Fatalf("ring holds seqs %d.. in %d records; it should have wrapped", recs[0].Seq, len(recs))
	}
}

func TestResetStatsClearsObservability(t *testing.T) {
	c := newTestCluster(t, 4)
	loadJoinTables(t, c)
	analyzeJoinGroupBy(t, c)
	if len(c.Trace()) == 0 {
		t.Fatal("expected trace records before reset")
	}
	c.ResetStats()
	if recs := c.Trace(); len(recs) != 0 {
		t.Fatalf("ResetStats left %d trace records", len(recs))
	}
	// The ring restarts from sequence zero and keeps working.
	if _, _, err := c.Query(Scan("edges")); err != nil {
		t.Fatal(err)
	}
	recs := c.Trace()
	if len(recs) != 1 || recs[0].Seq != 0 {
		t.Fatalf("post-reset trace %v, want one record with seq 0", recs)
	}
}

// TestCountersAccessor checks the per-statement deltas of two Stats
// snapshots, the subtraction ccalg's round log is built from.
func TestCountersAccessor(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, "tt", Schema{"a", "b"}, 0, pairs([2]int64{1, 2}, [2]int64{3, 4}))
	s0 := c.Stats()
	if _, err := c.CreateTableAs("tt2", Scan("tt"), 0); err != nil {
		t.Fatal(err)
	}
	s1 := c.Stats()
	if q := s1.Queries - s0.Queries; q != 1 {
		t.Fatalf("query delta %d, want 1", q)
	}
	if w, b := s1.RowsWritten-s0.RowsWritten, s1.BytesWritten-s0.BytesWritten; w != 2 || b != 2*2*DatumSize {
		t.Fatalf("write deltas rows=%d bytes=%d, want 2 rows, %d bytes", w, b, 2*2*DatumSize)
	}
}
