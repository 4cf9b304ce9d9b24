package engine

// Concurrency tests for the multi-session engine. Everything here is meant
// to run under `go test -race`: the stress tests drive the cluster from
// many goroutines at once and then check that the bookkeeping — row counts,
// statistics counters, concurrency gauges, the catalog itself — adds up
// exactly, so both data races (caught by the detector) and lost updates
// (caught by the arithmetic) fail the build.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbcc/internal/xrand"
)

// TestConcurrentSessionsStress runs many goroutines that each repeatedly
// create a private table, query it, append to it, query again and drop it,
// all against one shared cluster. No writes may be lost, every query must
// see exactly its own session's rows, and afterwards the cluster counters
// must equal the sum of everything the sessions did.
func TestConcurrentSessionsStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 25
		baseRows   = 7
	)
	c := NewCluster(Options{Segments: 4})

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("stress_g%d_i%d", id, i)
				rows := make([]Row, baseRows)
				for k := range rows {
					rows[k] = Row{I(int64(id)), I(int64(i)), I(int64(k))}
				}
				if _, err := c.CreateTableAs(name, Values(Schema{"id", "iter", "k"}, rows), 2); err != nil {
					t.Errorf("g%d i%d: create: %v", id, i, err)
					return
				}
				if got := querySum(t, c, name); got != int64(baseRows)*int64(id) {
					t.Errorf("g%d i%d: sum(id) = %d, want %d", id, i, got, baseRows*id)
				}
				if err := c.InsertRows(name, []Row{{I(int64(id)), I(int64(i)), I(int64(baseRows))}}); err != nil {
					t.Errorf("g%d i%d: insert: %v", id, i, err)
					return
				}
				if got := queryCount(t, c, name); got != baseRows+1 {
					t.Errorf("g%d i%d: count = %d, want %d (lost write)", id, i, got, baseRows+1)
				}
				if err := c.DropTable(name); err != nil {
					t.Errorf("g%d i%d: drop: %v", id, i, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	if names := c.TableNames(); len(names) != 0 {
		t.Fatalf("tables left after all sessions dropped theirs: %v", names)
	}

	// Exact accounting: per iteration each session runs one CreateTableAs,
	// two Querys and one InsertRows. All four bump Stats.Queries; the
	// create writes baseRows rows and the insert one more.
	const perIter = 4
	st := c.Stats()
	if want := int64(goroutines * iters * perIter); st.Queries != want {
		t.Errorf("Stats.Queries = %d, want %d", st.Queries, want)
	}
	if want := int64(goroutines * iters * (baseRows + 1)); st.RowsWritten != want {
		t.Errorf("Stats.RowsWritten = %d, want %d", st.RowsWritten, want)
	}
	if st.LiveBytes != 0 {
		t.Errorf("Stats.LiveBytes = %d after dropping every table, want 0", st.LiveBytes)
	}

	// Concurrency gauges: all four are statements.
	cs := c.ConcurrencyStats()
	if want := int64(goroutines * iters * perIter); cs.Total != want {
		t.Errorf("ConcurrencyStats.Total = %d, want %d", cs.Total, want)
	}
	if cs.Active != 0 {
		t.Errorf("ConcurrencyStats.Active = %d after quiescence, want 0", cs.Active)
	}
	if cs.Peak < 1 || cs.Peak > goroutines {
		t.Errorf("ConcurrencyStats.Peak = %d, want within [1, %d]", cs.Peak, goroutines)
	}
}

// TestConcurrentCreateSameName races several goroutines creating the same
// table name: exactly one must win, the rest must get the duplicate-table
// error, and the surviving table must be intact.
func TestConcurrentCreateSameName(t *testing.T) {
	c := newTestCluster(t, 4)
	const racers = 8
	rows := []Row{{I(1), I(2)}, {I(3), I(4)}, {I(5), I(6)}}

	var wins, losses atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := c.CreateTableAs("contested", Values(Schema{"a", "b"}, rows), 0)
			if err != nil {
				losses.Add(1)
			} else {
				wins.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if wins.Load() != 1 || losses.Load() != racers-1 {
		t.Fatalf("wins = %d, losses = %d; want exactly 1 winner of %d", wins.Load(), losses.Load(), racers)
	}
	if got := queryCount(t, c, "contested"); got != int64(len(rows)) {
		t.Fatalf("surviving table has %d rows, want %d", got, len(rows))
	}
}

// TestConcurrentReadersAndWriter checks scan snapshot isolation: readers
// querying a table while a writer appends batches must only ever observe a
// whole number of batches — a torn batch means a scan saw a partition
// mid-insert. Every append also merges trailing chunks of the segments it
// touches (appendChunk), so the readers race those merges too, and half of
// them read every row back to check no batch is torn or reordered.
func TestConcurrentReadersAndWriter(t *testing.T) {
	const (
		readers   = 6
		batches   = 40
		batchRows = 16
	)
	c := newTestCluster(t, 4)
	if _, err := c.CreateTable("feed", Schema{"v", "w"}, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(full bool) {
			defer wg.Done()
			prev := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := queryCount(t, c, "feed")
				if full {
					n = readBatches(t, c, batchRows)
				}
				if n%batchRows != 0 {
					t.Errorf("reader saw %d rows: torn batch (batch size %d)", n, batchRows)
					return
				}
				if n < prev {
					t.Errorf("reader saw row count go backwards: %d after %d", n, prev)
					return
				}
				prev = n
			}
		}(r%2 == 1)
	}
	for b := 0; b < batches; b++ {
		batch := make([]Row, batchRows)
		for k := range batch {
			batch[k] = Row{I(int64(b)), I(int64(k))}
		}
		if err := c.InsertRows("feed", batch); err != nil {
			t.Fatalf("insert batch %d: %v", b, err)
		}
	}
	close(stop)
	wg.Wait()

	if got := queryCount(t, c, "feed"); got != batches*batchRows {
		t.Fatalf("final count = %d, want %d", got, batches*batchRows)
	}
	if got := readBatches(t, c, batchRows); got != batches*batchRows {
		t.Fatalf("final read = %d rows, want %d", got, batches*batchRows)
	}
	// The merges kept each segment's list short.
	tab, _ := c.Table("feed")
	for seg, list := range tab.snapshotParts() {
		if len(list) > 8 {
			t.Errorf("segment %d holds %d chunks after %d appends, want O(log rows)", seg, len(list), batches)
		}
	}
}

// readBatches reads the feed table of TestConcurrentReadersAndWriter back
// row by row and checks that it holds whole batches 0..n-1, each batch's
// rows in insertion order within a segment. It returns the row count.
func readBatches(t *testing.T, c *Cluster, batchRows int) int64 {
	t.Helper()
	tab, _ := c.Table("feed")
	perBatch := map[int64]int{}
	for seg, part := range segmentRows(tab) {
		last := map[int64]int64{}
		for _, r := range part {
			b, k := r[0].Int, r[1].Int
			if prev, ok := last[b]; ok && k <= prev {
				t.Errorf("segment %d: batch %d row %d after row %d", seg, b, k, prev)
			}
			last[b] = k
			perBatch[b]++
		}
	}
	for b, n := range perBatch {
		if n != batchRows || b < 0 || b >= int64(len(perBatch)) {
			t.Errorf("batch %d: %d rows visible of %d (batches seen %d)", b, n, batchRows, len(perBatch))
		}
	}
	return int64(len(perBatch) * batchRows)
}

// TestWorkerPoolBoundsParallelism verifies that segment tasks never exceed
// the configured worker budget, within one parallel call and across
// concurrent statements sharing the cluster, whether the tasks fan out or
// run inline on their statements' goroutines (inputs on both sides of
// inlineRows).
func TestWorkerPoolBoundsParallelism(t *testing.T) {
	for _, rows := range []int64{inlineRows - 1, inlineRows} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			const workers = 3
			c := NewCluster(Options{Segments: 16, Workers: workers})
			if c.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", c.Workers(), workers)
			}

			var cur, peak atomic.Int64
			task := func(seg int) error {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				// Busy work so tasks overlap if the pool lets them.
				s := 0
				for i := 0; i < 20000; i++ {
					s += i * seg
				}
				_ = s
				cur.Add(-1)
				return nil
			}

			// Several goroutines issue parallel fan-outs at once; the
			// semaphore must bound the total, not just each call.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.newExecEnv(context.Background()).parallel(rows, task); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			if got := peak.Load(); got > workers {
				t.Fatalf("observed %d concurrent segment tasks, budget is %d", got, workers)
			}
			if cur.Load() != 0 {
				t.Fatalf("task gauge did not return to zero: %d", cur.Load())
			}
		})
	}
}

// TestParallelCoversAllSegments checks that parallel runs every segment
// exactly once for assorted worker/segment shapes, both in the fan-out's
// work-stealing loop and inline (inputs on both sides of inlineRows).
func TestParallelCoversAllSegments(t *testing.T) {
	for _, rows := range []int64{inlineRows - 1, inlineRows} {
		for _, tc := range []struct{ segs, workers int }{
			{1, 1}, {4, 1}, {4, 2}, {16, 4}, {3, 8}, {7, 7},
		} {
			c := NewCluster(Options{Segments: tc.segs, Workers: tc.workers})
			counts := make([]atomic.Int64, tc.segs)
			err := c.newExecEnv(context.Background()).parallel(rows, func(seg int) error {
				counts[seg].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for s := range counts {
				if got := counts[s].Load(); got != 1 {
					t.Errorf("rows=%d segments=%d workers=%d: segment %d ran %d times, want 1",
						rows, tc.segs, tc.workers, s, got)
				}
			}
		}
	}
}

// TestConcurrentUDFRegistration races registration against evaluation: a
// query planned before a re-registration keeps the function it captured.
func TestConcurrentUDFRegistration(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, "u", Schema{"x"}, 0, []Row{{I(10)}, {I(20)}, {I(30)}})
	c.RegisterUDF("twice", func(args []Datum) Datum { return I(args[0].Int * 2) })

	var regWG, queryWG sync.WaitGroup
	stop := make(chan struct{})
	regWG.Add(1)
	go func() {
		defer regWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.RegisterUDF("twice", func(args []Datum) Datum { return I(args[0].Int * 2) })
			}
		}
	}()
	for r := 0; r < 4; r++ {
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			for i := 0; i < 50; i++ {
				// Re-plan every iteration: CallUDF reads the registry
				// while the other goroutine re-registers, and the built
				// expression captures the function it saw.
				expr, err := c.CallUDF("twice", Col(0))
				if err != nil {
					t.Errorf("CallUDF: %v", err)
					return
				}
				_, rows, err := c.Query(Project(Scan("u"), ProjCol{Expr: expr, Name: "y"}))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				sum := int64(0)
				for _, row := range rows {
					sum += row[0].Int
				}
				if sum != 120 {
					t.Errorf("sum = %d, want 120", sum)
					return
				}
			}
		}()
	}
	queryWG.Wait()
	// Only now stop the re-registration loop; it raced real queries above.
	close(stop)
	regWG.Wait()
}

// querySum returns SUM(col0) of a table via a full query.
func querySum(t *testing.T, c *Cluster, table string) int64 {
	t.Helper()
	_, rows, err := c.Query(GroupBy(Scan(table), nil,
		Agg{Op: AggSum, Arg: Col(0), Name: "s"}))
	if err != nil {
		t.Errorf("sum %s: %v", table, err)
		return -1
	}
	if len(rows) == 0 || rows[0][0].Null {
		return 0
	}
	return rows[0][0].Int
}

// queryCount returns COUNT(*) of a table via a full query.
func queryCount(t *testing.T, c *Cluster, table string) int64 {
	t.Helper()
	_, rows, err := c.Query(GroupBy(Scan(table), nil,
		Agg{Op: AggCount, Name: "n"}))
	if err != nil {
		t.Errorf("count %s: %v", table, err)
		return -1
	}
	if len(rows) == 0 {
		return 0
	}
	return rows[0][0].Int
}

// TestRecycledArenaConcurrentStatements runs 8 goroutines of small CREATE
// TABLE AS, Query and DROP statements on one cluster under 5 % injected
// faults, with every operator's segment tasks fanned out, while a ninth
// statement is cancelled mid-flight. Every statement takes its execution
// environment, and so its arena's header slabs, from the cluster's free
// list and hands it back when it ends, so the environments pass between
// goroutines and between statements that fail, retry and cancel. Each
// query's rows must equal a sequential run's on a clean cluster.
func TestRecycledArenaConcurrentStatements(t *testing.T) {
	defer func(v int64) { inlineBelow = v }(inlineBelow)
	inlineBelow = 0
	const goroutines, iters = 8, 6
	setup := func(opts Options) *Cluster {
		opts.Segments, opts.Workers = 4, 4
		c := NewCluster(opts)
		mustCreate(t, c, "a", Schema{"k", "v"}, 0, randRows(xrand.New(71), 300))
		mustCreate(t, c, "b", Schema{"k", "w"}, 1, randRows(xrand.New(73), 200))
		return c
	}
	plan := func(g, i int) (Plan, int) {
		join := JoinPlan{Left: Scan("a"), Right: Scan("b"), LeftKey: 0, RightKey: 0, Kind: LeftOuterJoin}
		switch i % 3 {
		case 0:
			return Distinct(Project(Filter(join, Bin(OpNe, Col(1), Const(int64(g)))),
				ProjCol{Expr: Col(1), Name: "v"}, ProjCol{Expr: Coalesce(Col(3), Const(-1)), Name: "w"})), 0
		case 1:
			return GroupBy(Scan("a"), []int{1}, Agg{Op: AggMin, Arg: Col(0), Name: "mn"}, Agg{Op: AggCount, Name: "n"}), 0
		}
		return Project(Scan("b"), ProjCol{Expr: Col(1), Name: "w"}, ProjCol{Expr: Bin(OpAdd, Col(0), Const(int64(g))), Name: "k"}), NoDistKey
	}
	// session runs goroutine g's statements and returns each query's rows,
	// sorted.
	session := func(c *Cluster, g int) ([][]Row, error) {
		var out [][]Row
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("t%d_%d", g, i)
			p, key := plan(g, i)
			if _, err := c.CreateTableAs(name, p, key); err != nil {
				return nil, err
			}
			_, rows, err := c.Query(Project(Scan(name), ProjCol{Expr: Col(1), Name: "y"}, ProjCol{Expr: Col(0), Name: "x"}))
			if err != nil {
				return nil, err
			}
			slices.SortFunc(rows, func(x, y Row) int {
				return cmp.Or(cmp.Compare(x[0].Int, y[0].Int), cmp.Compare(b2i(x[0].Null), b2i(y[0].Null)),
					cmp.Compare(x[1].Int, y[1].Int), cmp.Compare(b2i(x[1].Null), b2i(y[1].Null)))
			})
			out = append(out, rows)
			if err := c.DropTable(name); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	ref := setup(Options{})
	want := make([][][]Row, goroutines)
	for g := range want {
		var err error
		if want[g], err = session(ref, g); err != nil {
			t.Fatal(err)
		}
	}

	c := setup(Options{Faults: FaultConfig{Seed: 17, FailureRate: 0.05}})
	started, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.RegisterColumnUDF("stall", func(out []int64, args []UDFArg) {
		once.Do(func() { close(started) })
		<-unblock
		for i := range out {
			out[i] = args[0].At(i)
		}
	})
	stall, err := c.CallUDF("stall", Col(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := c.CreateTableAsCtx(ctx, "stalled", Project(UnionAll(Scan("a"), Scan("b")),
			ProjCol{Expr: stall, Name: "v"}), NoDistKey)
		cancelled <- err
	}()
	<-started

	got := make([][][]Row, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = session(c, g)
		}(g)
	}
	cancel() // while the sessions run: the stalled statement's release waits for its tasks
	time.Sleep(5 * time.Millisecond)
	close(unblock)
	wg.Wait()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CTAS returned %v, want context.Canceled", err)
	}
	if _, ok := c.Table("stalled"); ok {
		t.Fatal("cancelled CTAS published its table")
	}
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range want[g] {
			if !slices.EqualFunc(got[g][i], want[g][i], slices.Equal) {
				t.Fatalf("goroutine %d statement %d: %d rows differ from the sequential run's %d", g, i, len(got[g][i]), len(want[g][i]))
			}
		}
	}
	if st := c.Stats(); st.TaskRetries == 0 {
		t.Fatalf("no task was retried under 5 %% injected faults: %+v", st)
	}
}
