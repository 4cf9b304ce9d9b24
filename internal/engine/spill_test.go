package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbcc/internal/xrand"
)

// Differential tests for memory-bounded execution: every spilling kernel
// must be bit-identical to its in-memory twin. Each test runs the same
// query on two clusters over identical data — one unbounded, one with a
// budget tiny enough to force the spilling paths — and asserts exact row
// equality plus actual spill activity on the budgeted side.

// spillBudget is tight enough that every per-segment kernel working set
// in these tests exceeds its share (budget/segments = 1 KiB).
const spillBudget = 4 << 10

// joinableRows generates rows whose key column is nearly uniform over a
// small range: enough duplicates to exercise hash chains without the
// quadratic blowup a hot-key-skewed self join would produce.
func joinableRows(rng *xrand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		k := NullDatum
		if rng.Uint64n(20) != 0 {
			k = I(int64(rng.Uint64n(512)))
		}
		rows[i] = Row{k, I(int64(i))}
	}
	return rows
}

// spillPair creates an unbounded and a tightly budgeted cluster over the
// same table, with the test's spill files in a fresh temp directory.
func spillPair(t *testing.T, schema Schema, rows []Row) (mem, spill *Cluster) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	mem = NewCluster(Options{Segments: 4})
	spill = NewCluster(Options{Segments: 4, MemoryBudget: spillBudget})
	t.Cleanup(func() { spill.Close() })
	mustCreate(t, mem, "t", schema, 0, rows)
	mustCreate(t, spill, "t", schema, 0, rows)
	return mem, spill
}

// sameRows asserts two result sets are identical, including order.
func sameRows(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("row %d: got %v, want %v", r, got[r], want[r])
			}
		}
	}
}

// runBoth executes the plan on both clusters and asserts identical
// results and spill activity on the budgeted cluster.
func runBoth(t *testing.T, mem, spill *Cluster, p Plan) {
	t.Helper()
	_, want, err := mem.Query(p)
	if err != nil {
		t.Fatalf("in-memory query: %v", err)
	}
	_, got, root, err := spill.QueryAnalyzeCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("budgeted query: %v", err)
	}
	sameRows(t, got, want)
	if root.TotalSpilled() == 0 {
		t.Fatalf("budgeted query did not spill:\n%s", root.Format())
	}
}

func TestSpillJoinMatchesInMemory(t *testing.T) {
	rng := xrand.New(101)
	rows := joinableRows(rng, 2000)
	mem, spill := spillPair(t, Schema{"k", "x"}, rows)
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		p := JoinPlan{Left: Scan("t"), Right: Scan("t"), LeftKey: 0, RightKey: 0, Kind: kind}
		runBoth(t, mem, spill, p)
	}
	if s := spill.Stats(); s.SpilledBytes == 0 || s.PeakWorkBytes == 0 {
		t.Fatalf("Stats missing spill activity: %+v", s)
	}
	assertSpillCounters(t, spill, spillCounters{SpilledBytes: 559724, SpillPartitions: 1488, SpillPasses: 324})
}

// TestBudgetedJoinChargesMatchLists pins the in-memory join's accounting
// when its output dwarfs its inputs: a 64-row build side fits the budget,
// so the join does not spill, but one hot key fans 100 probe rows out into
// 6400 matches whose match-index lists alone (8 bytes a pair) would be
// twelve times the budget. The lists are charged next to the hash table —
// the peak is above the table's own size — and bounded to what the table
// leaves of the share, so the peak stays within the budget while the rows
// still equal the unbounded run's, in order.
func TestBudgetedJoinChargesMatchLists(t *testing.T) {
	const budget = 4 << 10
	build := make([]Row, 64)
	for i := range build {
		build[i] = Row{I(7), I(int64(i))}
	}
	probe := make([]Row, 100)
	for i := range probe {
		probe[i] = Row{I(7), I(int64(-i))}
	}
	run := func(memBudget int64, kind JoinKind) ([]Row, Stats) {
		c := NewCluster(Options{Segments: 1, MemoryBudget: memBudget})
		t.Cleanup(func() { c.Close() })
		mustCreate(t, c, "p", Schema{"k", "x"}, 0, append(probe[:len(probe):len(probe)], Row{I(8), I(1)}, Row{NullDatum, I(2)}))
		mustCreate(t, c, "b", Schema{"k", "y"}, 0, build)
		_, rows, err := c.Query(JoinPlan{Left: Scan("p"), Right: Scan("b"), LeftKey: 0, RightKey: 0, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		return rows, c.Stats()
	}
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		want, _ := run(0, kind)
		got, stats := run(budget, kind)
		sameRows(t, got, want)
		if len(got) < 6400 {
			t.Fatalf("kind %v: join produced %d rows, want the 6400-row fan-out", kind, len(got))
		}
		if stats.SpilledBytes != 0 {
			t.Fatalf("kind %v: join spilled %d bytes; the build side fits the budget", kind, stats.SpilledBytes)
		}
		if table := joinTableBytes(len(build)); stats.PeakWorkBytes <= table {
			t.Fatalf("kind %v: peak working memory %d does not exceed the hash table's %d: match lists not charged",
				kind, stats.PeakWorkBytes, table)
		}
		if stats.PeakWorkBytes > budget {
			t.Fatalf("kind %v: peak working memory %d exceeds the budget %d", kind, stats.PeakWorkBytes, budget)
		}
	}
}

func TestSpillGroupByMatchesInMemory(t *testing.T) {
	rng := xrand.New(103)
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{I(int64(rng.Uint64n(700))), I(int64(rng.Uint64n(1 << 20)))}
	}
	mem, spill := spillPair(t, Schema{"k", "x"}, rows)
	p := GroupBy(Scan("t"), []int{0},
		Agg{Op: AggMin, Arg: Col(1), Name: "mn"},
		Agg{Op: AggMax, Arg: Col(1), Name: "mx"},
		Agg{Op: AggCount, Name: "n"})
	runBoth(t, mem, spill, p)
	assertSpillCounters(t, spill, spillCounters{SpilledBytes: 434912, SpillPartitions: 688, SpillPasses: 138})
}

func TestSpillDistinctMatchesInMemory(t *testing.T) {
	rng := xrand.New(107)
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{I(int64(rng.Uint64n(40))), I(int64(rng.Uint64n(50)))}
	}
	mem, spill := spillPair(t, Schema{"a", "b"}, rows)
	runBoth(t, mem, spill, Distinct(Scan("t")))
	assertSpillCounters(t, spill, spillCounters{SpilledBytes: 227283, SpillPartitions: 536, SpillPasses: 118})
}

// TestSpillSortMatchesInMemory drives the external merge sort with heavy
// key ties: the payload column records input order, so any stability
// violation in run formation or merge shows up as a row mismatch.
func TestSpillSortMatchesInMemory(t *testing.T) {
	rng := xrand.New(109)
	rows := make([]Row, 4000)
	for i := range rows {
		k := NullDatum
		if rng.Uint64n(15) != 0 {
			k = I(int64(rng.Uint64n(8)))
		}
		rows[i] = Row{k, I(int64(i))}
	}
	mem, spill := spillPair(t, Schema{"k", "pos"}, rows)
	for _, desc := range []bool{false, true} {
		p := Sort(Scan("t"), []SortKey{{Col: 0, Desc: desc}}, -1)
		runBoth(t, mem, spill, p)
	}
	assertSpillCounters(t, spill, spillCounters{SpilledBytes: 205992, SpillPartitions: 130, SpillPasses: 8})
}

// TestSpillExplainAnalyze asserts the spill counters surface in the
// rendered operator profile.
func TestSpillExplainAnalyze(t *testing.T) {
	rng := xrand.New(113)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	_, _, root, err := spill.QueryAnalyzeCtx(context.Background(),
		JoinPlan{Left: Scan("t"), Right: Scan("t"), LeftKey: 0, RightKey: 0, Kind: InnerJoin})
	if err != nil {
		t.Fatal(err)
	}
	out := root.Format()
	if !strings.Contains(out, "spilled=") || !strings.Contains(out, "parts=") {
		t.Fatalf("EXPLAIN ANALYZE output missing spill counters:\n%s", out)
	}
}

func TestResetStatsClearsSpillTotals(t *testing.T) {
	rng := xrand.New(127)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	if _, _, err := spill.Query(Distinct(Scan("t"))); err != nil {
		t.Fatal(err)
	}
	if s := spill.Stats(); s.SpilledBytes == 0 {
		t.Fatal("setup query did not spill")
	}
	spill.ResetStats()
	s := spill.Stats()
	if s.SpilledBytes != 0 || s.SpillPartitions != 0 || s.SpillPasses != 0 || s.PeakWorkBytes != 0 {
		t.Fatalf("ResetStats left spill totals: %+v", s)
	}
}

// TestSpillCleanupAfterStatement asserts no spill file outlives its
// statement: after a spilling query completes, no descriptor refers to
// one and the temp directory is empty.
func TestSpillCleanupAfterStatement(t *testing.T) {
	rng := xrand.New(131)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	if _, _, err := spill.Query(Distinct(Scan("t"))); err != nil {
		t.Fatal(err)
	}
	if spill.Stats().SpilledBytes == 0 {
		t.Fatal("query did not spill")
	}
	assertNoSpillFiles(t)
}

// TestSpillCleanupAfterError injects a certain spill-write failure with
// no retry budget, so the statement errors mid-spill, and asserts its
// spill file is released anyway.
func TestSpillCleanupAfterError(t *testing.T) {
	rng := xrand.New(137)
	t.Setenv("TMPDIR", t.TempDir())
	c := NewCluster(Options{Segments: 4, MemoryBudget: spillBudget, Faults: FaultConfig{Seed: 7, SpillFailureRate: 1}})
	t.Cleanup(func() { c.Close() })
	mustCreate(t, c, "t", Schema{"k", "x"}, 0, joinableRows(rng, 2000))
	if _, _, err := c.Query(Distinct(Scan("t"))); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("query with certain spill failures returned %v, want an injected fault", err)
	}
	assertNoSpillFiles(t)
}

// TestSpillCleanupAfterCancel cancels a statement between two spilling
// operators: a UDF over the inner DISTINCT's output cancels the context,
// so the statement fails while its spill file is open, and the file must
// be released anyway.
func TestSpillCleanupAfterCancel(t *testing.T) {
	rng := xrand.New(151)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spill.RegisterUDF("cancel_stmt", func(args []Datum) Datum {
		cancel()
		return args[0]
	})
	call, err := spill.CallUDF("cancel_stmt", Col(0))
	if err != nil {
		t.Fatal(err)
	}
	p := Distinct(Project(Distinct(Scan("t")),
		ProjCol{Expr: call, Name: "k"}, ProjCol{Expr: Col(1), Name: "x"}))
	if _, _, err := spill.QueryCtx(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled statement returned %v, want context.Canceled", err)
	}
	if spill.Stats().SpilledBytes == 0 {
		t.Fatal("statement was cancelled before it spilled")
	}
	assertNoSpillFiles(t)
}

// TestSpillFaultRetry composes spilling with the fault injector at a rate
// retries can absorb: results stay identical to the unbounded cluster and
// the injected spill faults are visible in the totals.
func TestSpillFaultRetry(t *testing.T) {
	rng := xrand.New(139)
	rows := joinableRows(rng, 2000)
	mem := NewCluster(Options{Segments: 4})
	mustCreate(t, mem, "t", Schema{"k", "x"}, 0, rows)
	t.Setenv("TMPDIR", t.TempDir())
	// Under this pathological budget a task attempt performs on the order
	// of a thousand spill writes, so the per-write rate must stay low
	// enough that the per-attempt failure probability is well inside what
	// the retry policy absorbs.
	spill := NewCluster(Options{
		Segments: 4, MemoryBudget: spillBudget,
		Faults: FaultConfig{
			Seed: 11, SpillFailureRate: 0.0002,
			RetryBackoff: time.Microsecond, MaxTaskRetries: 12, RetryBudget: 400,
		},
	})
	t.Cleanup(func() { spill.Close() })
	mustCreate(t, spill, "t", Schema{"k", "x"}, 0, rows)

	p := GroupBy(Scan("t"), []int{0}, Agg{Op: AggCount, Name: "n"})
	_, want, err := mem.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fault decisions are deterministic per (seed, statement); a fixed
	// number of statements yields a fixed, nonzero injection count.
	for i := 0; i < 20; i++ {
		_, got, err := spill.Query(p)
		if err != nil {
			t.Fatalf("statement %d under spill faults: %v", i, err)
		}
		sameRows(t, got, want)
	}
	if spill.FaultInjector().Injected() == 0 {
		t.Fatal("no spill faults were injected; lower the threshold or raise the rate")
	}
	if s := spill.Stats(); s.TaskRetries == 0 || s.TaskFaults == 0 {
		t.Fatalf("spill faults not visible in Stats: retries=%d faults=%d", s.TaskRetries, s.TaskFaults)
	}
	assertSpillCounters(t, spill, spillCounters{
		SpilledBytes: 3272554, SpillPartitions: 8972, SpillPasses: 1934, TaskRetries: 17, TaskFaults: 17})
	assertNoSpillFiles(t)
}

// spillCounters is the part of Stats the spill kernels and their fault
// schedule determine.
type spillCounters struct {
	SpilledBytes, SpillPartitions, SpillPasses, TaskRetries, TaskFaults int64
}

// assertSpillCounters compares a cluster's spill counters with pinned
// values. The pins were recorded from the file-per-partition spill
// layout; the spill file's layout must change neither the frames written
// nor the fault schedule, so a mismatch is a regression, never a reason
// to rerecord.
func assertSpillCounters(t *testing.T, c *Cluster, want spillCounters) {
	t.Helper()
	s := c.Stats()
	got := spillCounters{s.SpilledBytes, s.SpillPartitions, s.SpillPasses, s.TaskRetries, s.TaskFaults}
	if got != want {
		t.Fatalf("spill counters %+v, pinned %+v", got, want)
	}
}

// OpenSpillFiles returns the targets of this process's open descriptors
// that name a spill file (an unlinked one reads ".../dbcc-spill-N
// (deleted)"). It reads /proc/self/fd, so it needs Linux; the external
// test package uses it too.
func OpenSpillFiles(t testing.TB) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("listing open descriptors: %v", err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.Contains(target, "dbcc-spill-") {
			open = append(open, target)
		}
	}
	return open
}

// assertNoSpillFiles asserts that every statement released its spill
// file: no descriptor still refers to one, and the test's temp directory
// (TMPDIR, set to a fresh directory by the caller) holds no entry at all.
func assertNoSpillFiles(t *testing.T) {
	t.Helper()
	if open := OpenSpillFiles(t); len(open) > 0 {
		t.Fatalf("spill files still open after their statements finished: %v", open)
	}
	ents, err := os.ReadDir(os.TempDir())
	if err != nil {
		t.Fatalf("reading TMPDIR: %v", err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("TMPDIR not empty after statements finished: %v", names)
	}
}

// TestSpillCodecRoundTrip round-trips random chunks (with and without
// NULL bitmaps, including zero-row and zero-column shapes) through the
// frame codec.
func TestSpillCodecRoundTrip(t *testing.T) {
	rng := xrand.New(149)
	for trial := 0; trial < 60; trial++ {
		ncols := int(rng.Uint64n(5))
		nrows := int(rng.Uint64n(200))
		b := newChunkBuilder(ncols)
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				b.appendCol(c, int64(rng.Uint64()), rng.Uint64n(4) == 0)
			}
			b.n++
		}
		in := b.finish()
		buf := encodeChunkFrame(nil, in)
		out, n, err := decodeChunkFrame(buf)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(buf) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, n, len(buf))
		}
		if out.length != in.length || len(out.cols) != len(in.cols) {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for c := 0; c < ncols; c++ {
			for r := 0; r < nrows; r++ {
				gn, wn := out.nulls[c].get(r), in.nulls[c].get(r)
				if gn != wn || (!gn && out.cols[c][r] != in.cols[c][r]) {
					t.Fatalf("trial %d: col %d row %d differs", trial, c, r)
				}
			}
		}
	}
}

// TestSpillCodecRejectsCorrupt asserts truncated or corrupted frames fail
// cleanly with errSpillCorrupt-class errors rather than panicking.
func TestSpillCodecRejectsCorrupt(t *testing.T) {
	b := newChunkBuilder(2)
	for r := 0; r < 100; r++ {
		b.appendCol(0, int64(r), false)
		b.appendCol(1, int64(r), r%3 == 0)
		b.n++
	}
	good := encodeChunkFrame(nil, b.finish())
	if _, _, err := decodeChunkFrame(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
	for cut := 0; cut < len(good); cut += 7 {
		if _, _, err := decodeChunkFrame(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Oversized column/row counts must be rejected before allocation.
	huge := bytes.Clone(good)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeChunkFrame(huge); err == nil {
		t.Fatal("absurd ncols decoded successfully")
	}
	huge = bytes.Clone(good)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeChunkFrame(huge); err == nil {
		t.Fatal("absurd nrows decoded successfully")
	}
	// Stray bits past nrows in the last bitmap word must be rejected.
	stray := bytes.Clone(good)
	// Column 1 header: 8 byte chunk header + col0 (1 flag + 100 values).
	col1 := 8 + 1 + 800
	if stray[col1] != 1 {
		t.Fatalf("expected col 1 to carry a bitmap, flag=%d", stray[col1])
	}
	// Last bitmap word covers rows 64..99: set bit 63 (row 127).
	stray[col1+1+8+7] |= 0x80
	if _, _, err := decodeChunkFrame(stray); err == nil {
		t.Fatal("stray bitmap bits decoded successfully")
	}
}
