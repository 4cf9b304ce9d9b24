// Package engine implements the Massively Parallel Processing (MPP)
// relational database substrate the paper's algorithms run on.
//
// The paper executes its SQL queries on Apache HAWQ, an MPP database that
// hash-distributes every table across a cluster of segments and executes
// relational operators in parallel on each segment, shuffling rows between
// segments when an operator needs a different distribution. This package
// reproduces that execution model in-process: a Cluster holds N virtual
// segments; each Table is hash-distributed by one of its columns; plans
// composed of Scan, Filter, Project, HashJoin, GroupBy, Distinct and
// UnionAll execute on a bounded worker pool and explicit hash
// redistribution steps, exactly as an MPP planner would schedule them.
//
// The engine also keeps the books the paper's evaluation reads: how many
// queries ran, how many rows and bytes each query wrote, the live table
// footprint over time and its peak (Table IV), and the cumulative bytes
// written (Table V).
//
// # Concurrency and locking discipline
//
// A Cluster is safe for concurrent use by multiple sessions: independent
// statements (CreateTableAs, Query, InsertRows, InsertSelectCtx,
// DeleteRows) and DDL (DropTable, ...) may execute simultaneously from
// different goroutines. Every statement enters through one wrapper
// (Cluster.statement in exec.go) for panic recovery, the concurrency
// gauges, its deadline, the query count and its trace record. The
// discipline is:
//
//   - c.mu (RWMutex) guards the catalog: the tables map, the UDF registry
//     and Table.Name. Lookups take the read lock; create/drop/rename take
//     the write lock. No query execution happens while holding c.mu.
//   - t.mu (RWMutex, per Table) guards the table's per-segment chunk
//     lists. Scans snapshot the list headers under the read lock;
//     InsertRows and DeleteRows replace a mutated segment's list with a
//     freshly allocated one under the write lock and never edit a list in
//     place, so a snapshot taken before a mutation stays valid. Chunks are
//     immutable once stored — CreateTableAs publishes its operator output
//     by reference, Scan hands stored chunks to operators without copying,
//     and operators must build new chunks, never modify their inputs.
//   - c.statsMu (Mutex) guards the Stats counters, the trace ring and the
//     concurrency gauges. It is a leaf lock: nothing else is acquired
//     while holding it.
//   - appendRows, every INSERT's write path, feeds a table's component
//     index while holding t.mu, so c.idxMu (leaf) and the index's own lock
//     nest inside t.mu; index code never takes a table lock while holding
//     either (compidx.go).
//   - Lock order is c.mu before t.mu before c.statsMu; never the reverse.
//   - Segment tasks submitted to the worker pool via execEnv.parallel must
//     be leaf computations: they must not issue queries, touch the catalog
//     or call parallel again, or the pool's cluster-wide bound could
//     deadlock. They take no table lock either, which is what lets
//     DeleteRows run its tasks while it holds its table's t.mu.
//
// Statements are individually atomic but multi-statement sequences are
// not isolated: two sessions creating the same table name race benignly
// (one receives an "already exists" error). Sessions that need private
// intermediate tables must namespace them (see package sql's isolated
// sessions and package ccalg's per-run prefixes).
package engine

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Datum is a single column value: a 64-bit integer or SQL NULL.
type Datum struct {
	Int  int64
	Null bool
}

// I returns a non-null integer Datum.
func I(v int64) Datum { return Datum{Int: v} }

// NullDatum is the SQL NULL value.
var NullDatum = Datum{Null: true}

// DatumSize is the modelled on-disk size of one column value in bytes,
// matching the 64-bit vertex IDs of the paper's tables. Storage accounting
// (Table.Bytes, OpMetrics.Bytes, Stats.BytesWritten) uses this width.
const DatumSize = 8

// DatumWireSize is the modelled size of one column value on the
// interconnect: the canonical row encoding emitted by encodeRow is one
// null-tag byte plus the 8-byte payload per value, and shuffle
// traffic (Stats.ShuffleBytes, OpMetrics.Shuffle) is charged at exactly
// this width. TestWireWidthAgreement asserts the encoding and the
// accounting never drift apart.
const DatumWireSize = DatumSize + 1

// Row is one table row.
type Row []Datum

// Schema is the ordered list of column names of a table or plan output.
type Schema []string

// ColIndex returns the index of the named column, or -1 if absent.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c == name {
			return i
		}
	}
	return -1
}

// NoDistKey marks a table or intermediate result with no known hash
// distribution (rows may live on any segment).
const NoDistKey = -1

// Table is a hash-distributed table: rows whose distribution-key column
// hashes to segment i live in segment i's list of immutable columnar
// chunks. The lists are copy-on-write (see the package comment); read a
// table through a plan or Cluster.ReadAll.
type Table struct {
	Name    string
	Schema  Schema
	DistKey int // column index rows are distributed by, or NoDistKey

	mu    sync.RWMutex // guards parts
	parts [][]*Chunk   // per segment, in insertion order; no empty chunks
}

// Rows returns the total row count across all segments.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowsLocked()
}

// rowsLocked is Rows for a caller holding t.mu.
func (t *Table) rowsLocked() int64 {
	var n int64
	for _, list := range t.parts {
		for _, ch := range list {
			n += int64(ch.length)
		}
	}
	return n
}

// Bytes returns the modelled storage footprint of the table.
func (t *Table) Bytes() int64 {
	return t.Rows() * int64(len(t.Schema)) * DatumSize
}

// snapshotParts returns a copy of the per-segment list headers. Lists and
// chunks are never modified once published — mutations replace a whole
// list — so the snapshot stays a consistent point-in-time view.
func (t *Table) snapshotParts() [][]*Chunk {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([][]*Chunk(nil), t.parts...)
}

// Stats is the engine's one counter snapshot: the execution counters the
// paper's Tables IV and V are built from, plus the engine's own gauges.
// It is fixed-size, so taking one costs the same however long the cluster
// has run; the trace ring (Trace) is the only per-statement record.
//
// One accounting rule governs space: a table's bytes are live from the
// write that stores them until a DELETE removes them or DROP TABLE drops
// the table, so between statements LiveBytes equals the sum of
// Table.Bytes over the catalog. Inside one transaction, where dropped
// storage is reclaimed only at commit (Sec. VII-B), the peak is the input
// plus BytesWritten.
type Stats struct {
	Queries      int64 // statements executed: CTAS, SELECT, INSERT and DELETE
	RowsWritten  int64 // total rows written into created tables
	BytesWritten int64 // total bytes written into created tables (Table V)
	LiveBytes    int64 // current footprint of all live tables
	PeakBytes    int64 // maximum LiveBytes observed (Table IV)
	ShuffleBytes int64 // bytes moved between segments by redistribution
	// Deprecated: the engine no longer prunes join shuffles, so
	// ShuffleSavedBytes is always zero. It remains only because the
	// benchmark harness still reads it; the next benchmark change removes
	// it.
	ShuffleSavedBytes int64

	// Fault-tolerance counters, summed over the operator profiles of every
	// traced statement (see fault.go).
	TaskRetries   int64 // segment-task retries
	TaskFaults    int64 // injected segment faults observed
	TaskCancelled int64 // segment tasks abandoned by cancellation

	// Memory-bounded execution counters (see memory.go). PeakWorkBytes is
	// the highest accounted kernel working set of any single statement;
	// with Options.MemoryBudget set it never exceeds the budget. The spill
	// totals accumulate across statements and are cleared by ResetStats.
	PeakWorkBytes   int64 // peak accounted working memory of one statement
	SpilledBytes    int64 // bytes written to spill files
	SpillPartitions int64 // spill partitions/runs written
	SpillPasses     int64 // partitioning / run-formation passes

	// Prepared-statement / plan-cache counters (see plancache.go). Parses
	// counts SQL texts actually lexed+parsed; the cache counters report
	// validated plan reuse. ResetStats clears the counters but keeps the
	// cached plans warm.
	Parses                 int64 // SQL statements parsed
	PlanCacheHits          int64 // cached plans reused after validation
	PlanCacheMisses        int64 // lookups that had to plan from scratch
	PlanCacheInvalidations int64 // cached plans evicted by DDL or failed validation

	// Component-index maintenance counters (see compidx.go).
	// IndexLabelsTouched counts parent-pointer writes and vertex
	// registrations on the incremental insert path — the bounded-work
	// witness: it grows amortised near-constant per inserted edge, never
	// with the table size; a rebuild adds the vertex count it rescanned.
	// IndexRebuilds counts the delete path's rebuilds, each one union-find
	// rescan of the table.
	IndexLabelsTouched int64 // union-find labels written by insert maintenance
	IndexMerges        int64 // component merges performed by inserts
	IndexRebuilds      int64 // full rebuilds triggered by deletes
}

// ConcurrencyStats reports the multi-session activity of a cluster, the
// observability hook for the concurrent-session support.
type ConcurrencyStats struct {
	// Active is the number of statements executing right now: CREATE
	// TABLE AS, SELECT, INSERT (InsertRows and INSERT … SELECT) and
	// DELETE all count.
	Active int64
	// Peak is the highest number of simultaneously executing statements
	// observed since the cluster was created.
	Peak int64
	// Total is the number of statements begun since the cluster was
	// created (never reset).
	Total int64
}

// Profile selects the execution environment being modelled.
type Profile int

const (
	// ProfileMPP models a mature MPP database (HAWQ): local
	// pre-aggregation before shuffles and negligible per-query overhead.
	ProfileMPP Profile = iota
	// ProfileSparkSQL models executing the same SQL on Spark SQL
	// (Sec. VII-C): no map-side pre-aggregation and a fixed scheduling
	// overhead added to every query, the mechanism the paper blames for
	// the ≈2.3× slowdown it measured.
	ProfileSparkSQL
)

// Options configure a Cluster.
type Options struct {
	// Segments is the number of virtual MPP segments; 0 means 8, the
	// reproduction default (the paper's cluster had 60 cores over 5 nodes).
	Segments int
	// Workers bounds the number of OS-thread-backed goroutines executing
	// segment tasks at any moment, across all concurrent sessions; 0 means
	// GOMAXPROCS. Segments beyond this bound queue on the shared pool, so
	// configuring many virtual segments never oversubscribes the host.
	Workers int
	// Profile selects the execution environment model.
	Profile Profile
	// QueryTimeout is the per-statement execution deadline; statements
	// exceeding it abort with a context.DeadlineExceeded error. 0 means no
	// deadline. It composes with caller-supplied contexts: whichever
	// cancels first wins.
	QueryTimeout time.Duration
	// Faults configures deterministic fault injection and the retry policy
	// that absorbs it (see FaultConfig) — the chaos harness modelling
	// segment failure in an MPP cluster. The zero value injects nothing and
	// keeps the default retry policy.
	Faults FaultConfig
	// MemoryBudget bounds each statement's kernel working memory (hash
	// tables, sort state, spill buffers) in bytes; segment tasks whose
	// working set would exceed budget/Segments run spilling kernel
	// variants instead (Grace hash join, partitioned group-by/DISTINCT,
	// external merge sort — see memory.go and spill_kernels.go). 0 means
	// unbounded, the historical in-memory behaviour.
	MemoryBudget int64
}

// RegisterFlags registers the cluster flags every command shares —
// -segments, -timeout, -fault-rate, -fault-seed and -mem-budget — bound
// straight into o's fields, so o is ready to use once fs is parsed.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Segments, "segments", 8, "virtual MPP segments")
	fs.DurationVar(&o.QueryTimeout, "timeout", 0, "per-statement deadline (0 = none)")
	fs.Float64Var(&o.Faults.FailureRate, "fault-rate", 0, "inject segment-task failures at this probability per attempt (0 = off)")
	fs.Uint64Var(&o.Faults.Seed, "fault-seed", 1, "seed for the deterministic fault injector")
	fs.Int64Var(&o.MemoryBudget, "mem-budget", 0, "per-statement working-memory budget in bytes; kernels spill to disk beyond it (0 = unbounded)")
}

// Cluster is the in-process MPP database: a catalog of distributed tables,
// a set of virtual segments, a UDF registry and execution statistics.
// A Cluster is safe for concurrent use by multiple sessions; see the
// package comment for the locking discipline.
type Cluster struct {
	segments int
	workers  int
	profile  Profile

	queryTimeout   time.Duration
	injector       *FaultInjector
	maxTaskRetries int
	retryBackoff   time.Duration
	retryBudget    int
	memBudget      int64
	stmtSeq        atomic.Uint64 // statement numbering for fault determinism

	mu     sync.RWMutex // guards tables, udfs, Table.Name
	tables map[string]*Table
	udfs   map[string]udfEntry

	plans *planCache // compiled-plan cache; own leaf lock, see plancache.go

	idxMu   sync.Mutex // guards indexes (leaf; see compidx.go)
	indexes map[string]*ComponentIndex

	statsMu  sync.Mutex // guards stats, the concurrency gauges and trace
	stats    Stats
	active   int64
	peak     int64
	total    int64
	trace    []TraceRecord // query-trace ring buffer
	traceSeq int64         // statements traced since the last reset
	traceCap int

	sem chan struct{} // cluster-wide worker-pool slots
}

// UDF is a scalar user-defined function, the mechanism the paper uses to
// load finite-field arithmetic (axplusb) and Blowfish into the database.
// UDFs may be evaluated from many worker goroutines at once and must be
// safe for concurrent use.
type UDF func(args []Datum) Datum

// ColumnUDF is the column form of a user-defined function: the engine
// calls it once per chunk instead of once per row, with len(out) rows to
// fill; out may hold stale values on entry, so the kernel writes every
// row. Each argument is either one value per row (Col) or, when the plan
// passes a literal or bound parameter, a single Const for the whole chunk —
// never materialised as a vector, so work that depends only on a constant
// argument (a multiplication table, a cipher key schedule) is done once
// per call. Column UDFs are strict: the engine never passes NULL. A row
// with any NULL argument yields NULL (the values a kernel computes there
// are discarded), and a NULL constant yields an all-NULL column without a
// call. Like scalar UDFs they run on many worker goroutines at once, and a
// panic fails only the calling statement.
type ColumnUDF func(out []int64, args []UDFArg)

// UDFArg is one argument of a ColumnUDF call: Col holds one value per
// output row, or is nil when the argument is Const on every row.
type UDFArg struct {
	Col   []int64
	Const int64
}

// At returns the argument's value on row i.
func (a UDFArg) At(i int) int64 {
	if a.Col != nil {
		return a.Col[i]
	}
	return a.Const
}

// udfEntry is one registered function: its scalar form, plus the column
// kernel when it was registered through RegisterColumnUDF.
type udfEntry struct {
	fn  UDF
	col ColumnUDF
}

// scalarForm derives the scalar UDF of a column kernel — the kernel
// applied to one row of constants — so a function registered in column
// form has a single implementation.
func scalarForm(col ColumnUDF) UDF {
	return func(args []Datum) Datum {
		consts := make([]UDFArg, len(args))
		for i, d := range args {
			if d.Null {
				return NullDatum
			}
			consts[i].Const = d.Int
		}
		var out [1]int64
		col(out[:], consts)
		return I(out[0])
	}
}

// NewCluster creates an MPP cluster.
func NewCluster(opts Options) *Cluster {
	if opts.Segments <= 0 {
		opts.Segments = 8
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	retries := opts.Faults.MaxTaskRetries
	if retries == 0 {
		retries = 3
	} else if retries < 0 {
		retries = 0
	}
	backoff := opts.Faults.RetryBackoff
	if backoff <= 0 {
		backoff = 200 * time.Microsecond
	}
	budget := opts.Faults.RetryBudget
	if budget == 0 {
		budget = 1024
	} else if budget < 0 {
		budget = 0
	}
	return &Cluster{
		segments:       opts.Segments,
		workers:        opts.Workers,
		profile:        opts.Profile,
		queryTimeout:   opts.QueryTimeout,
		injector:       newFaultInjector(opts.Faults),
		maxTaskRetries: retries,
		retryBackoff:   backoff,
		retryBudget:    budget,
		memBudget:      opts.MemoryBudget,
		tables:         make(map[string]*Table),
		udfs:           make(map[string]udfEntry),
		indexes:        make(map[string]*ComponentIndex),
		plans:          newPlanCache(planCacheSize),
		traceCap:       traceCapacity,
		sem:            make(chan struct{}, opts.Workers),
	}
}

// Segments returns the number of virtual segments.
func (c *Cluster) Segments() int { return c.segments }

// Workers returns the worker-pool bound in effect.
func (c *Cluster) Workers() int { return c.workers }

// MemoryBudget returns the per-statement working-memory budget in bytes,
// or 0 when execution is unbounded.
func (c *Cluster) MemoryBudget() int64 { return c.memBudget }

// Profile returns the execution environment model in effect.
func (c *Cluster) Profile() Profile { return c.profile }

// RegisterUDF installs or replaces a scalar function available to plans
// (and to the SQL layer) under the given lower-case name. Cached plans
// capture UDF implementations at plan time, so the whole plan cache is
// flushed (after releasing the catalog lock — the cache lock is a leaf).
func (c *Cluster) RegisterUDF(name string, fn UDF) {
	c.registerUDF(name, udfEntry{fn: fn})
}

// RegisterColumnUDF installs or replaces a function given in column form
// (see ColumnUDF). Plans evaluate it a chunk at a time; the scalar form
// UDF returns is the same kernel applied to one row.
func (c *Cluster) RegisterColumnUDF(name string, col ColumnUDF) {
	c.registerUDF(name, udfEntry{fn: scalarForm(col), col: col})
}

func (c *Cluster) registerUDF(name string, e udfEntry) {
	c.mu.Lock()
	c.udfs[name] = e
	c.mu.Unlock()
	c.plans.flush()
}

// UDF looks up a registered function's scalar form.
func (c *Cluster) UDF(name string) (UDF, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.udfs[name]
	return e.fn, ok
}

// Stats returns a snapshot of the execution counters.
func (c *Cluster) Stats() Stats {
	c.statsMu.Lock()
	s := c.stats
	c.statsMu.Unlock()
	s.Parses, s.PlanCacheHits, s.PlanCacheMisses, s.PlanCacheInvalidations = c.plans.counters()
	return s
}

// LiveBytes returns the current live table footprint, the one field the
// per-statement space budget reads.
func (c *Cluster) LiveBytes() int64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats.LiveBytes
}

// ConcurrencyStats returns the multi-session activity gauges.
func (c *Cluster) ConcurrencyStats() ConcurrencyStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return ConcurrencyStats{Active: c.active, Peak: c.peak, Total: c.total}
}

// beginStatement marks a statement as executing for the concurrency gauges.
func (c *Cluster) beginStatement() {
	c.statsMu.Lock()
	c.active++
	c.total++
	if c.active > c.peak {
		c.peak = c.active
	}
	c.statsMu.Unlock()
}

// endStatement reverses beginStatement.
func (c *Cluster) endStatement() {
	c.statsMu.Lock()
	c.active--
	c.statsMu.Unlock()
}

// ResetStats clears all counters (keeping live-space accounting consistent
// with the tables that currently exist) and the query-trace ring buffer,
// so benchmarks that reset between algorithm runs never leak metrics from
// one run into the next. The concurrency gauges are not reset. Per-run
// statistics are only meaningful when runs do not overlap; concurrent
// sessions share one set of counters.
func (c *Cluster) ResetStats() {
	c.statsMu.Lock()
	live := c.stats.LiveBytes
	c.stats = Stats{LiveBytes: live, PeakBytes: live}
	c.trace = nil
	c.traceSeq = 0
	c.statsMu.Unlock()
	// Plan-cache counters reset too, but cached plans stay warm: clearing
	// statistics between benchmark runs must not force replanning.
	c.plans.resetCounters()
}

// Table returns the named table.
func (c *Cluster) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// TableNames returns the catalog contents in sorted order.
func (c *Cluster) TableNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// CreateTable registers an empty table distributed by column distKey.
func (c *Cluster) CreateTable(name string, schema Schema, distKey int) (*Table, error) {
	if distKey != NoDistKey && (distKey < 0 || distKey >= len(schema)) {
		return nil, fmt.Errorf("engine: distribution key %d out of range for %v", distKey, schema)
	}
	t := &Table{Name: name, Schema: schema, DistKey: distKey, parts: make([][]*Chunk, c.segments)}
	c.mu.Lock()
	if _, exists := c.tables[name]; exists {
		c.mu.Unlock()
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	c.tables[name] = t
	c.mu.Unlock()
	// A new table can change what a cached plan's name resolution would
	// pick (namespace shadowing a global name), so it invalidates too.
	c.plans.invalidate(name)
	return t, nil
}

// InsertRows bulk-loads rows into an existing table, distributing them by
// the table's distribution key (round-robin for a NoDistKey table), and
// accounts for the write. The rows are converted to one chunk and placed
// by appendRows, so an insert costs O(rows inserted) rather than O(table)
// and concurrent scans keep reading their consistent snapshots.
func (c *Cluster) InsertRows(name string, rows []Row) error {
	return c.statement(context.Background(), "insert", name, func(s *statement) error {
		t, ok := c.Table(name)
		if !ok {
			return fmt.Errorf("engine: table %q does not exist", name)
		}
		for _, r := range rows {
			if len(r) != len(t.Schema) {
				return fmt.Errorf("engine: row arity %d does not match schema %v", len(r), t.Schema)
			}
		}
		c.appendRows(s, name, t, rowsToChunk(rows, len(t.Schema)))
		s.rec.Plan = fmt.Sprintf("Insert(%s, %d rows)", name, len(rows))
		return nil
	})
}

// appendRows is the one write path of INSERT: it places ch's rows on the
// table's segments with the shuffle's router (routeChunk: the
// distribution key's hash, NULL on segment 0) or, for a NoDistKey table,
// round-robin from the table's row count, appends one exact-size chunk per
// touched segment copy-on-write (appendChunk), and feeds the table's
// component index ch in row order. It accounts the write and returns the
// rows written.
func (c *Cluster) appendRows(s *statement, name string, t *Table, ch *Chunk) int64 {
	n := ch.length
	dp := getI32(n)
	dests := (*dp)[:n]
	t.mu.Lock()
	if t.DistKey != NoDistKey {
		routeChunk(ch, t.DistKey, c.segments, dests)
	} else {
		cursor := t.rowsLocked()
		for r := range dests {
			dests[r] = int32((cursor + int64(r)) % int64(c.segments))
		}
	}
	one := n > 0
	for _, d := range dests {
		if d != dests[0] {
			one = false
			break
		}
	}
	if one {
		// Every row lands on one segment: store ch itself.
		t.parts[dests[0]] = appendChunk(t.parts[dests[0]], ch)
	} else {
		// The stored chunks share one fresh backing array.
		for seg, b := range radixPartitionChunk(ch, dests, c.segments, make([]int64, len(ch.cols)*n)) {
			if b.length > 0 {
				t.parts[seg] = appendChunk(t.parts[seg], b)
			}
		}
	}
	touched, merges := c.feedIndex(name, ch)
	t.mu.Unlock()
	*dp = dests
	putI32(dp)
	c.addIndexCounters(touched, merges, 0)
	s.rec.Rows, s.rec.Bytes = int64(n), int64(n)*int64(len(t.Schema))*DatumSize
	c.accountWrite(s.rec.Rows, s.rec.Bytes)
	return s.rec.Rows
}

// DeleteRows removes the rows of a table that a filter chain over its scan
// selects, releasing their space, and returns the number removed. p is
// Filter*(Scan(t)), the plan of SELECT * FROM t WHERE …; a bare Scan(t)
// deletes every row. The chain runs as the scan pipeline's filter over
// each stored chunk, one task per segment on the worker pool, so a DELETE
// removes exactly the rows that SELECT returns and has the fault
// injection, retries and cancellation of any statement. A DELETE is
// atomic: a failed task, a cancel or the statement's deadline removes
// nothing. Only the chunks that lose rows are rewritten, and a changed
// segment's list is replaced, never edited, so concurrent scans keep their
// snapshots. A component index on the table goes stale on any removal and
// is rebuilt before DeleteRows returns (see compidx.go).
func (c *Cluster) DeleteRows(ctx context.Context, p Plan) (removed int64, err error) {
	pl, src := splitPipeline(p)
	scan, ok := src.(ScanPlan)
	if !ok || pl.proj != nil {
		return 0, fmt.Errorf("engine: DELETE takes filters over a table scan, not %s", p)
	}
	err = c.statement(ctx, "delete", scan.Table, func(s *statement) error {
		t, ok := c.Table(scan.Table)
		if !ok {
			return fmt.Errorf("engine: table %q does not exist", scan.Table)
		}
		var err error
		if removed, err = s.open().deleteRows(t, pl); err != nil {
			return err
		}
		c.statsMu.Lock()
		c.stats.LiveBytes -= removed * int64(len(t.Schema)) * DatumSize
		c.statsMu.Unlock()
		s.rec.Plan, s.rec.Rows = fmt.Sprintf("Delete(%s, %d rows)", p, removed), removed
		c.maybeRebuildIndex(t, scan.Table, removed)
		return nil
	})
	return removed, err
}

// deleteRows is DeleteRows' table rewrite. It holds the table's write lock
// from the first read to the swap, so no insert lands in between. Each
// segment's task runs pl over the segment's stored chunks and publishes
// the segment's new list into its own slot (nil while no chunk loses a
// row); a retried task starts its list afresh. The lists are stored only
// once every task has succeeded and parallel has found the statement
// still live, so a failed or cancelled DELETE leaves the table as it was.
func (e *execEnv) deleteRows(t *Table, pl pipeline) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := make([][]*Chunk, len(t.parts))
	removed := make([]int64, len(t.parts))
	err := e.parallel(func(seg int) error {
		list := t.parts[seg]
		var out []*Chunk
		var n int64
		r := make([]int64, len(pl.filters))
		for i, ch := range list {
			kept, dropped, err := pl.remove(ch, r, &e.scratch)
			if err != nil {
				return err
			}
			if dropped > 0 && out == nil {
				out = append(make([]*Chunk, 0, len(list)), list[:i]...)
			}
			if out != nil && kept != nil {
				out = append(out, kept)
			}
			n += int64(dropped)
		}
		next[seg], removed[seg] = out, n
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for seg, list := range next {
		if list != nil {
			t.parts[seg] = list
		}
		total += removed[seg]
	}
	return total, nil
}

// DropTable removes a table from the catalog and releases its space.
func (c *Cluster) DropTable(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("engine: table %q does not exist", name)
	}
	delete(c.tables, name)
	c.mu.Unlock()
	c.plans.invalidate(name)
	c.dropIndexFor(name)
	bytes := t.Bytes()
	c.statsMu.Lock()
	c.stats.LiveBytes -= bytes
	c.statsMu.Unlock()
	return nil
}

// RenameTable renames a table; the destination must not exist.
func (c *Cluster) RenameTable(oldName, newName string) error {
	c.mu.Lock()
	t, ok := c.tables[oldName]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("engine: table %q does not exist", oldName)
	}
	if _, exists := c.tables[newName]; exists {
		c.mu.Unlock()
		return fmt.Errorf("engine: table %q already exists", newName)
	}
	delete(c.tables, oldName)
	t.Name = newName
	c.tables[newName] = t
	c.mu.Unlock()
	c.plans.invalidate(oldName, newName)
	c.renameIndexFor(oldName, newName)
	return nil
}

// ReadAll gathers all rows of a table onto the coordinator, in segment
// order. It is intended for result extraction and tests, not hot paths.
func (c *Cluster) ReadAll(name string) ([]Row, error) {
	t, ok := c.Table(name)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", name)
	}
	var chunks []*Chunk
	for _, list := range t.snapshotParts() {
		chunks = append(chunks, list...)
	}
	return chunkToRows(chunks...), nil
}

// accountWrite records a completed write of rows/bytes into the catalog.
func (c *Cluster) accountWrite(rows, bytes int64) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	c.stats.RowsWritten += rows
	c.stats.BytesWritten += bytes
	c.stats.LiveBytes += bytes
	if c.stats.LiveBytes > c.stats.PeakBytes {
		c.stats.PeakBytes = c.stats.LiveBytes
	}
}

// addShuffleBytes charges redistribution traffic to the statistics.
func (c *Cluster) addShuffleBytes(n int64) {
	c.statsMu.Lock()
	c.stats.ShuffleBytes += n
	c.statsMu.Unlock()
}
