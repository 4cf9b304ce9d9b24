package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dbcc/internal/xrand"
)

// inlineRun is everything one run of the inline-equivalence statement
// sequence produced: each statement's rows as returned or stored, segment
// by segment, each statement's operator profile without its timings, and
// the cluster's counters at the end.
type inlineRun struct {
	results [][]Row
	tables  [][][]Row
	ops     []string
	stats   Stats
}

// opCounters flattens an operator profile into one line per operator with
// every counter that must not depend on where the segment tasks ran.
func opCounters(m *OpMetrics, out []string) []string {
	out = append(out, fmt.Sprintf("%s(%s) rows=%d seg=%v shuffle=%d retries=%d faults=%d cancelled=%d",
		m.Op, m.Detail, m.Rows, m.SegRows, m.Shuffle, m.Retries, m.Faults, m.Cancelled))
	for _, ch := range m.Children {
		out = opCounters(ch, out)
	}
	return out
}

// The equivalence test's statements over t (a, b) and d (k, x): CTAS,
// SELECT, INSERT … SELECT, DELETE and EXPLAIN ANALYZE. Between them they
// run every operator that calls parallel: multi-chunk scan, pipeline,
// join, group-by, DISTINCT, UNION ALL, sort, the shuffle and DELETE's
// rewrite.
var (
	inlineCTAS = Project(Filter(Scan("t"), Bin(OpGt, Col(1), Const(10))),
		ProjCol{Expr: Col(0), Name: "a"}, ProjCol{Expr: Bin(OpAdd, Col(0), Col(1)), Name: "s"})
	inlineSelect = Sort(GroupBy(Filter(Scan("t"), Bin(OpLt, Col(0), Const(1500))), []int{0},
		Agg{Op: AggMin, Arg: Col(1), Name: "m"}, Agg{Op: AggCount, Name: "n"}), []SortKey{{Col: 0}}, -1)
	inlineInsert = UnionAll(Scan("t"), Project(Scan("t"),
		ProjCol{Expr: Col(1), Name: "a"}, ProjCol{Expr: Col(0), Name: "b"}))
	inlineDelete  = Filter(Scan("del"), Bin(OpOr, Bin(OpLt, Col(0), Const(300)), IsNull(Col(1))))
	inlineExplain = Distinct(Project(JoinPlan{Left: Scan("t"), Right: Scan("d"), LeftKey: 0, RightKey: 0, Kind: InnerJoin},
		ProjCol{Expr: Col(1), Name: "b"}, ProjCol{Expr: Col(3), Name: "x"}))
)

// inlineInputs builds t's rows (keys in [0, 2000), one in ten NULL) and
// d's 64 rows.
func inlineInputs(n int) (t, d []Row) {
	rng := xrand.New(uint64(n))
	val := func(r uint64) Datum {
		if rng.Uint64n(10) == 0 {
			return NullDatum
		}
		return I(int64(rng.Uint64n(r)))
	}
	t = make([]Row, n)
	for i := range t {
		t[i] = Row{val(2000), val(100)}
	}
	d = make([]Row, 64)
	for i := range d {
		d[i] = Row{val(2000), val(1000)}
	}
	return t, d
}

// runInlineSequence loads t in two inserts (two chunks per segment, so
// Scan concatenates) and d, then runs the five statements.
func runInlineSequence(t *testing.T, c *Cluster, tRows, dRows []Row) inlineRun {
	t.Helper()
	half := len(tRows) / 2
	mustCreate(t, c, "t", Schema{"a", "b"}, NoDistKey, tRows[:half])
	if err := c.InsertRows("t", tRows[half:]); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, c, "d", Schema{"k", "x"}, 0, dRows)
	if _, err := c.CreateTable("dst", Schema{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	var r inlineRun
	last := func() {
		recs := c.Trace()
		r.ops = append(r.ops, opCounters(recs[len(recs)-1].Root, nil)...)
	}
	table := func(name string) {
		tab, _ := c.Table(name)
		r.tables = append(r.tables, segmentRows(tab))
	}
	ctx := context.Background()

	if _, err := c.CreateTableAs("ctas", inlineCTAS, 1); err != nil {
		t.Fatalf("CTAS: %v", err)
	}
	last()
	table("ctas")

	_, rows, err := c.Query(inlineSelect)
	if err != nil {
		t.Fatalf("SELECT: %v", err)
	}
	last()
	r.results = append(r.results, rows)

	if _, err := c.InsertSelectCtx(ctx, "dst", inlineInsert); err != nil {
		t.Fatalf("INSERT … SELECT: %v", err)
	}
	last()
	table("dst")

	if _, err := c.CreateTableAs("del", Scan("t"), 0); err != nil {
		t.Fatalf("CTAS for DELETE: %v", err)
	}
	if _, err := c.DeleteRows(ctx, inlineDelete); err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	table("del")

	_, rows, root, err := c.QueryAnalyzeCtx(ctx, inlineExplain)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	r.ops = append(r.ops, opCounters(root, nil)...)
	r.results = append(r.results, rows)

	r.stats = c.Stats()
	return r
}

// inlineOracle computes the five statements' results row by row with
// evalRow: the CTAS table, the SELECT's rows in order, the INSERT's table,
// the table the DELETE leaves and the EXPLAIN ANALYZE query's rows.
func inlineOracle(tRows, dRows []Row) (ctas, sel, ins, del, explain []Row) {
	pf := inlineCTAS.(ProjectPlan)
	for _, row := range tRows {
		if truthy(evalRow(pf.Input.(FilterPlan).Pred, row)) {
			ctas = append(ctas, Row{evalRow(pf.Cols[0].Expr, row), evalRow(pf.Cols[1].Expr, row)})
		}
	}

	type group struct {
		m Datum
		n int64
	}
	groups := map[Datum]*group{}
	pred := inlineSelect.(SortPlan).Input.(GroupByPlan).Input.(FilterPlan).Pred
	for _, row := range tRows {
		if !truthy(evalRow(pred, row)) {
			continue
		}
		g := groups[row[0]]
		if g == nil {
			g = &group{m: NullDatum}
			groups[row[0]] = g
		}
		if v := row[1]; !v.Null && (g.m.Null || v.Int < g.m.Int) {
			g.m = v
		}
		g.n++
	}
	for k, g := range groups {
		sel = append(sel, Row{k, g.m, I(g.n)})
	}
	sortRows(sel)

	for _, row := range tRows {
		ins = append(ins, row, Row{row[1], row[0]})
	}
	for _, row := range tRows {
		if !truthy(evalRow(inlineDelete.(FilterPlan).Pred, row)) {
			del = append(del, row)
		}
	}
	seen := map[[2]Datum]bool{}
	for _, l := range tRows {
		for _, r := range dRows {
			if l[0].Null || r[0].Null || l[0].Int != r[0].Int {
				continue
			}
			if k := [2]Datum{l[1], r[1]}; !seen[k] {
				seen[k] = true
				explain = append(explain, Row{l[1], r[1]})
			}
		}
	}
	return
}

// TestInlineFanOutEquivalence runs CTAS, SELECT, INSERT … SELECT, DELETE
// and EXPLAIN ANALYZE over tables just below and at inlineRows, at 1, 7
// and 8 segments, with one and two workers, under 20% injected faults. The
// results must match the evalRow oracle, and the placement, rows, per-
// operator retries/faults/cancelled and Stats must equal those of the same
// statements with the fan-out forced on every operator: where a task runs
// changes nothing but the goroutine it runs on. An inline operator's
// failure (inlineFailure) and cancellation (inlineCancel) keep the
// fan-out's contract.
func TestInlineFanOutEquivalence(t *testing.T) {
	for _, n := range []int{inlineRows - 1, inlineRows} {
		tRows, dRows := inlineInputs(n)
		wantCTAS, wantSel, wantIns, wantDel, wantExplain := inlineOracle(tRows, dRows)
		for _, segs := range []int{1, 7, 8} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("rows=%d/segments=%d/workers=%d", n, segs, workers)
				t.Run(name, func(t *testing.T) {
					opts := Options{Segments: segs, Workers: workers, Faults: FaultConfig{
						Seed: 11, FailureRate: 0.2, MaxTaskRetries: 30, RetryBackoff: time.Microsecond}}
					run := func(below int64) inlineRun {
						defer func(v int64) { inlineBelow = v }(inlineBelow)
						inlineBelow = below
						return runInlineSequence(t, NewCluster(opts), tRows, dRows)
					}
					got, forced := run(inlineRows), run(0)

					flat := func(segRows [][]Row) []Row {
						var all []Row
						for _, rows := range segRows {
							all = append(all, rows...)
						}
						return all
					}
					eqRows(t, flat(got.tables[0]), wantCTAS)
					if g, w := fmt.Sprint(got.results[0]), fmt.Sprint(wantSel); g != w {
						t.Fatalf("SELECT returned %s\nwant (sorted) %s", g, w)
					}
					eqRows(t, flat(got.tables[1]), wantIns)
					eqRows(t, flat(got.tables[2]), wantDel)
					eqRows(t, got.results[1], wantExplain)

					if g, f := fmt.Sprint(got.results), fmt.Sprint(forced.results); g != f {
						t.Errorf("results differ from the forced fan-out")
					}
					if g, f := fmt.Sprint(got.tables), fmt.Sprint(forced.tables); g != f {
						t.Errorf("stored rows or their placement differ from the forced fan-out")
					}
					if len(got.ops) != len(forced.ops) {
						t.Fatalf("%d operators, %d with the fan-out forced", len(got.ops), len(forced.ops))
					}
					for i := range got.ops {
						if got.ops[i] != forced.ops[i] {
							t.Errorf("operator %d: %s\nforced fan-out: %s", i, got.ops[i], forced.ops[i])
						}
					}
					// PeakWorkBytes is the peak of the working memory that
					// overlapping tasks account together: the fan-out's with
					// two workers is at least the largest single task's,
					// which is what running the tasks one at a time gives.
					if workers > 1 && got.stats.PeakWorkBytes <= forced.stats.PeakWorkBytes {
						got.stats.PeakWorkBytes = forced.stats.PeakWorkBytes
					}
					if got.stats != forced.stats {
						t.Errorf("stats %+v\nforced fan-out %+v", got.stats, forced.stats)
					}
					if got.stats.TaskFaults == 0 {
						t.Errorf("no fault was injected")
					}
				})
			}
		}
	}
	t.Run("failure", inlineFailure)
	t.Run("cancel", inlineCancel)
}

// inlineFailure fails segments 3 and 5 of an inline operator: segment
// 3's error is the operator's, and the four segments after it never run
// and count as cancelled, as a fan-out's cancellation counts them.
func inlineFailure(t *testing.T) {
	c := NewCluster(Options{Segments: 8, Workers: 2})
	e := c.newExecEnv(context.Background())
	var ran []int
	err := e.parallel(inlineRows-1, func(seg int) error {
		ran = append(ran, seg)
		if seg == 3 || seg == 5 {
			return fmt.Errorf("segment %d broke", seg)
		}
		return nil
	})
	if err == nil || err.Error() != "segment 3 broke" {
		t.Fatalf("error %v, want segment 3's", err)
	}
	if fmt.Sprint(ran) != "[0 1 2 3]" || e.opCancelled.Load() != 4 {
		t.Fatalf("ran segments %v with %d cancelled, want [0 1 2 3] and 4", ran, e.opCancelled.Load())
	}
}

// inlineCancel cancels a statement while an inline operator's task sleeps
// in an injected latency spike: the statement must return the
// cancellation within 100ms and leave no goroutine behind.
func inlineCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(Options{Segments: 8, Workers: 2, Faults: FaultConfig{
		Seed: 3, LatencyRate: 1, Latency: time.Minute}})
	tRows, _ := inlineInputs(inlineRows - 1)
	if _, err := c.CreateTable("t", Schema{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows("t", tRows); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.QueryCtx(ctx, Filter(Scan("t"), Bin(OpGt, Col(1), Const(10))))
		done <- err
	}()
	for c.FaultInjector().Delayed() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	t0 := time.Now()
	select {
	case err := <-done:
		if elapsed := time.Since(t0); elapsed > 100*time.Millisecond {
			t.Fatalf("cancelled statement took %v to return, want <100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled statement returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled statement did not return within 5s")
	}
	if d := c.FaultInjector().Delayed(); d != 1 {
		t.Fatalf("%d tasks started, want the one the cancel interrupted", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running (baseline %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
