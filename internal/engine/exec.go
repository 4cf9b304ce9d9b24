package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"dbcc/internal/xrand"
)

// relation is an in-flight distributed intermediate result: one columnar
// chunk per segment. Scan reads a table's stored chunks, CreateTableAs
// stores a relation's chunks as they are, and only Query converts them to
// rows, so every operator runs on flat column arrays.
type relation struct {
	schema  Schema
	parts   []*Chunk
	distKey int // column the rows are currently hash-distributed by, or NoDistKey
}

// statement is one executing statement: the caller's context, the
// execution environment of its plan and the trace record its table logic
// fills in. The environment is nil until run opens one, so a statement
// without a plan takes no statement number, leaving the fault schedule of
// later statements alone; one that needs the per-statement deadline
// without a plan (DELETE) opens just that, with deadline.
type statement struct {
	c      *Cluster
	ctx    context.Context
	e      *execEnv
	cancel context.CancelFunc
	rec    TraceRecord
}

// deadline opens the statement's context under the per-statement
// deadline; the statement's epilogue cancels it.
func (s *statement) deadline() context.Context {
	var ctx context.Context
	ctx, s.cancel = s.c.statementContext(s.ctx)
	return ctx
}

// run executes the statement's plan under the per-statement deadline in a
// fresh execution environment and records the plan and its operator
// profile in the trace record.
func (s *statement) run(p Plan) (*relation, error) {
	s.e = s.c.newExecEnv(s.deadline())
	rel, root, err := s.e.exec(p)
	if err != nil {
		return nil, err
	}
	s.rec.Plan, s.rec.Root, s.rec.Shuffle = p.String(), root, root.TotalShuffle()
	return rel, nil
}

// statement runs body as one statement of the given trace kind between the
// prologue and epilogue every entry point shares: panic recovery, the
// concurrency gauges, the deadline and execution environment of its plan
// (run) and, once body succeeds, the query count, the profile charge and
// the trace record. body keeps only the statement's own table logic.
func (c *Cluster) statement(ctx context.Context, kind, target string, body func(s *statement) error) (err error) {
	defer recoverToError(kind, &err)
	c.beginStatement()
	defer c.endStatement()
	s := &statement{c: c, ctx: ctx, rec: TraceRecord{Kind: kind, Target: target, Start: time.Now()}}
	defer func() {
		if s.e != nil {
			s.e.close()
		}
		if s.cancel != nil {
			s.cancel()
		}
	}()
	if err := body(s); err != nil {
		return err
	}
	c.statsMu.Lock()
	c.stats.Queries++
	c.statsMu.Unlock()
	c.chargeProfileOverhead()
	s.rec.Elapsed = time.Since(s.rec.Start)
	c.addTrace(s.rec)
	return nil
}

// CreateTableAs executes the plan, materialises its output as a new table
// hash-distributed by column distKey (NoDistKey for arbitrary placement),
// and returns the number of rows written — the value the paper's driver
// script reads from every query to detect termination.
func (c *Cluster) CreateTableAs(name string, p Plan, distKey int) (int64, error) {
	return c.CreateTableAsCtx(context.Background(), name, p, distKey)
}

// CreateTableAsCtx is CreateTableAs executing under a context: cancelling
// ctx (or exceeding Options.QueryTimeout) aborts the statement between
// operators and between segment tasks, draining in-flight tasks before
// returning.
func (c *Cluster) CreateTableAsCtx(ctx context.Context, name string, p Plan, distKey int) (rows int64, err error) {
	err = c.statement(ctx, "create", name, func(s *statement) error {
		// Fast-fail before executing; the authoritative check is the atomic
		// publish below (another session may create the name meanwhile).
		if _, exists := c.Table(name); exists {
			return fmt.Errorf("engine: table %q already exists", name)
		}
		rel, err := s.run(p)
		if err != nil {
			return err
		}
		if distKey != NoDistKey {
			if distKey < 0 || distKey >= len(rel.schema) {
				return fmt.Errorf("engine: distribution key %d out of range for %v", distKey, rel.schema)
			}
			var placeShuffle int64
			if rel, placeShuffle, err = s.e.redistribute(rel, distKey); err != nil {
				return err
			}
			s.rec.Shuffle += placeShuffle
		}
		// Publish the output chunks by reference: chunks are immutable, and
		// no operator output aliases pooled scratch memory (the shuffle
		// copies out of its pooled buckets). One backing array holds every
		// segment's one-chunk list; appendChunk never appends in place.
		parts := make([][]*Chunk, c.segments)
		lists := make([]*Chunk, c.segments)
		for seg, ch := range rel.parts {
			if ch.length > 0 {
				lists[seg] = ch
				parts[seg] = lists[seg : seg+1 : seg+1]
			}
		}
		// The placement shuffle ran after the plan's root operator finished;
		// fold its fault counters into the root node so the trace accounts
		// for every retry of the statement.
		s.e.drainFaultCounters(s.rec.Root)
		t := &Table{Name: name, Schema: rel.schema, DistKey: distKey, parts: parts}
		c.mu.Lock()
		if _, exists := c.tables[name]; exists {
			c.mu.Unlock()
			return fmt.Errorf("engine: table %q already exists", name)
		}
		c.tables[name] = t
		c.mu.Unlock()
		c.plans.invalidate(name)
		rows = t.Rows()
		s.rec.Rows, s.rec.Bytes = rows, t.Bytes()
		c.accountWrite(rows, s.rec.Bytes)
		return nil
	})
	return rows, err
}

// Query executes the plan and gathers all result rows onto the coordinator,
// along with the output schema. Unlike CreateTableAs it does not write a
// table and therefore does not count toward the write statistics, but it
// does count as a query.
func (c *Cluster) Query(p Plan) (Schema, []Row, error) {
	schema, rows, _, err := c.QueryAnalyzeCtx(context.Background(), p)
	return schema, rows, err
}

// QueryCtx is Query executing under a context (see CreateTableAsCtx).
func (c *Cluster) QueryCtx(ctx context.Context, p Plan) (Schema, []Row, error) {
	schema, rows, _, err := c.QueryAnalyzeCtx(ctx, p)
	return schema, rows, err
}

// QueryAnalyzeCtx is QueryCtx returning additionally the per-operator
// execution profile of the run — the engine half of EXPLAIN ANALYZE.
func (c *Cluster) QueryAnalyzeCtx(ctx context.Context, p Plan) (schema Schema, rows []Row, root *OpMetrics, err error) {
	err = c.statement(ctx, "select", "", func(s *statement) error {
		rel, err := s.run(p)
		if err != nil {
			return err
		}
		schema, rows, root = rel.schema, chunkToRows(rel.parts...), s.rec.Root
		s.rec.Rows, s.rec.Bytes = int64(len(rows)), root.Bytes
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return schema, rows, root, nil
}

// InsertSelectCtx executes the plan and appends its output to an existing
// table, SQL's INSERT … SELECT, returning the rows written. The output,
// concatenated in segment order, is placed as InsertRows places its rows.
func (c *Cluster) InsertSelectCtx(ctx context.Context, name string, p Plan) (rows int64, err error) {
	err = c.statement(ctx, "insert", name, func(s *statement) error {
		t, ok := c.Table(name)
		if !ok {
			return fmt.Errorf("engine: table %q does not exist", name)
		}
		rel, err := s.run(p)
		if err != nil {
			return err
		}
		if len(rel.schema) != len(t.Schema) {
			return fmt.Errorf("engine: row arity %d does not match schema %v", len(rel.schema), t.Schema)
		}
		rows = c.appendRows(s, name, t, concatChunks(len(t.Schema), rel.parts))
		return nil
	})
	return rows, err
}

// profileSink keeps the synthetic scheduling work below observable so the
// compiler cannot eliminate the loop. Updated atomically: queries charge
// their overhead concurrently.
var profileSink atomic.Uint64

// sparkPerQueryWork is the synthetic extra work, in hash operations,
// charged per query under ProfileSparkSQL, modelling job scheduling and
// stage startup.
const sparkPerQueryWork = 800_000

// chargeProfileOverhead burns the synthetic per-query scheduling work of
// the modelled execution environment (Sec. VII-C: Spark SQL pays a fixed
// job-scheduling cost per query that a resident MPP database does not).
func (c *Cluster) chargeProfileOverhead() {
	if c.profile != ProfileSparkSQL {
		return
	}
	var acc uint64
	for i := 0; i < sparkPerQueryWork; i++ {
		acc = xrand.Mix64(acc + uint64(i))
	}
	profileSink.Add(acc)
}

// drainFaultCounters moves the environment's pending retry/fault/cancel
// and spill counters into the metrics node. Operators execute depth-first
// and sequentially within a statement, so between two finishOp calls the
// counters belong to exactly one operator.
func (e *execEnv) drainFaultCounters(m *OpMetrics) {
	m.Retries += e.opRetries.Swap(0)
	m.Faults += e.opFaults.Swap(0)
	m.Cancelled += e.opCancelled.Swap(0)
	m.Spilled += e.opSpilled.Swap(0)
	m.SpillParts += e.opSpillParts.Swap(0)
	m.SpillPasses += e.opSpillPasses.Swap(0)
}

// finishOp builds the metrics node for one executed operator: output
// volume and per-segment distribution from the produced relation, the
// operator's shuffle traffic, per-segment compute times and inclusive wall
// time since start, plus the fault-tolerance counters accumulated since the
// previous operator finished.
func (e *execEnv) finishOp(op, detail string, rel *relation, children []*OpMetrics,
	shuffle int64, segTimes []time.Duration, start time.Time) *OpMetrics {
	m := &OpMetrics{
		Op:       op,
		Detail:   detail,
		Shuffle:  shuffle,
		Elapsed:  time.Since(start),
		SegTimes: segTimes,
		Children: children,
	}
	m.SegRows = make([]int64, len(rel.parts))
	for i, p := range rel.parts {
		m.SegRows[i] = int64(p.length)
		m.Rows += int64(p.length)
	}
	m.Bytes = m.Rows * int64(len(rel.schema)) * DatumSize
	e.drainFaultCounters(m)
	return m
}

// exec evaluates a plan tree to a distributed relation, collecting one
// OpMetrics node per operator. Cancellation is checked before every
// operator; segment tasks additionally observe it between retries and
// before starting.
func (e *execEnv) exec(p Plan) (*relation, *OpMetrics, error) {
	if err := e.checkCancelled(); err != nil {
		return nil, nil, err
	}
	c := e.c
	start := time.Now()
	switch p := p.(type) {
	case ScanPlan:
		t, ok := c.Table(p.Table)
		if !ok {
			return nil, nil, fmt.Errorf("engine: table %q does not exist", p.Table)
		}
		// A segment holding one stored chunk hands it out by reference;
		// only segments that inserts left in several chunks are
		// concatenated, on the worker pool.
		stored := t.snapshotParts()
		ncols := len(t.Schema)
		parts := make([]*Chunk, c.segments)
		concat := false
		for seg, list := range stored {
			switch len(list) {
			case 0:
				parts[seg] = newChunk(ncols, 0)
			case 1:
				parts[seg] = list[0]
			default:
				concat = true
			}
		}
		if concat {
			err := e.parallel(func(seg int) error {
				if len(stored[seg]) > 1 {
					parts[seg] = concatChunks(ncols, stored[seg])
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
		}
		rel := &relation{schema: t.Schema, parts: parts, distKey: t.DistKey}
		return rel, e.finishOp("Scan", p.Table, rel, nil, 0, nil, start), nil

	case ValuesPlan:
		parts := c.newParts(len(p.Cols))
		parts[0] = rowsToChunk(p.Rows, len(p.Cols))
		rel := &relation{schema: p.Cols, parts: parts, distKey: NoDistKey}
		return rel, e.finishOp("Values", "", rel, nil, 0, nil, start), nil

	case FilterPlan, ProjectPlan:
		return e.execPipeline(p, start)

	case UnionAllPlan:
		schema, err := p.Schema(c)
		if err != nil {
			return nil, nil, err
		}
		ins := make([]*relation, 0, len(p.Inputs))
		var children []*OpMetrics
		for _, inp := range p.Inputs {
			in, cm, err := e.exec(inp)
			if err != nil {
				return nil, nil, err
			}
			children = append(children, cm)
			ins = append(ins, in)
		}
		out := make([]*Chunk, c.segments)
		err = e.parallel(func(seg int) error {
			pieces := make([]*Chunk, len(ins))
			for i, in := range ins {
				pieces[i] = in.parts[seg]
			}
			out[seg] = concatChunks(len(schema), pieces)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		rel := &relation{schema: schema, parts: out, distKey: NoDistKey}
		return rel, e.finishOp("UnionAll", "", rel, children, 0, nil, start), nil

	case DistinctPlan:
		in, cm, err := e.exec(p.Input)
		if err != nil {
			return nil, nil, err
		}
		shuffled, moved, err := e.shuffle(in, NoDistKey) // by a hash of the whole row
		if err != nil {
			return nil, nil, err
		}
		out := make([]*Chunk, c.segments)
		segTimes, err := e.parallelTimed(func(seg int) error {
			ch, derr := e.foldSegment(seg, shuffled.parts[seg], len(in.schema), nil, true)
			if derr != nil {
				return derr
			}
			out[seg] = ch
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		rel := &relation{schema: in.schema, parts: out, distKey: NoDistKey}
		return rel, e.finishOp("Distinct", "", rel, []*OpMetrics{cm}, moved, segTimes, start), nil

	case SortPlan:
		return e.execSort(p, start)

	case GroupByPlan:
		return e.execGroupBy(p, start)

	case JoinPlan:
		return e.execJoin(p, start)
	}
	return nil, nil, fmt.Errorf("engine: unknown plan node %T", p)
}

// execPipeline executes a Project?(Filter*(X)) chain — a projection over
// zero or more filters, or a filter chain alone — as one pipeline: the
// innermost predicate evaluates over the child's full chunk, every outer
// predicate only over the rows still selected, and the projection (when
// present) computes its expressions directly over the final selection into
// dense output vectors. No intermediate filtered chunk is ever
// materialised, yet the metrics tree carries one node per logical operator
// (EXPLAIN ANALYZE output keeps its shape; TestQueryAnalyzeMetrics'
// per-node invariants hold).
func (e *execEnv) execPipeline(p Plan, start time.Time) (*relation, *OpMetrics, error) {
	c := e.c
	var proj *ProjectPlan
	if pp, ok := p.(ProjectPlan); ok {
		proj = &pp
		p = pp.Input
	}
	// Collect the filter chain, outermost first.
	var filters []FilterPlan
	for {
		f, ok := p.(FilterPlan)
		if !ok {
			break
		}
		filters = append(filters, f)
		p = f.Input
	}
	in, cm, err := e.exec(p)
	if err != nil {
		return nil, nil, err
	}
	schema := in.schema
	outKey := in.distKey
	if proj != nil {
		schema, err = proj.Schema(c)
		if err != nil {
			return nil, nil, err
		}
		// A projection that passes the current distribution column through
		// unchanged preserves the distribution (filters never disturb it).
		outKey = NoDistKey
		if in.distKey != NoDistKey {
			for i, col := range proj.Cols {
				if ref, ok := col.Expr.(ColRef); ok && ref.Idx == in.distKey {
					outKey = i
					break
				}
			}
		}
	}
	// Surviving rows per segment after each filter, innermost filter last.
	counts := make([][]int64, len(filters))
	for i := range counts {
		counts[i] = make([]int64, c.segments)
	}
	out := make([]*Chunk, c.segments)
	segTimes, err := e.parallelTimed(func(seg int) error {
		ch := in.parts[seg]
		// sel lists the selected rows; nil selects every row (evalRows), so
		// a projection without filters aliases or computes whole columns.
		var sel []int32
		if len(filters) > 0 {
			kp := getI32(ch.length)
			defer putI32(kp)
			for fi := len(filters) - 1; fi >= 0; fi-- {
				pv, perr := evalRows(filters[fi].Pred, ch, sel)
				if perr != nil {
					return perr
				}
				// Compact in place: kept[j] is written only after sel[i],
				// i >= j, has been read.
				kept := (*kp)[:0]
				for i := range pv.vals {
					if !pv.null(i) && pv.vals[i] != 0 {
						r := int32(i)
						if sel != nil {
							r = sel[i]
						}
						kept = append(kept, r)
					}
				}
				sel, *kp = kept, kept
				counts[fi][seg] = int64(len(sel))
			}
		}
		if proj == nil {
			out[seg] = gatherChunk(ch, sel)
			return nil
		}
		n := ch.length
		if sel != nil {
			n = len(sel)
		}
		vecs := make([]colVec, len(proj.Cols))
		for i, col := range proj.Cols {
			v, verr := evalRows(col.Expr, ch, sel)
			if verr != nil {
				return verr
			}
			vecs[i] = v
		}
		out[seg] = chunkFromVecs(vecs, n)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Rebuild the per-operator metrics chain from the inside out; every
	// logical Filter gets its own node with its measured selectivity.
	inWidth := int64(len(in.schema))
	node := cm
	for fi := len(filters) - 1; fi >= 0; fi-- {
		var rows int64
		for _, k := range counts[fi] {
			rows += k
		}
		node = &OpMetrics{
			Op:       "Filter",
			Detail:   filters[fi].Pred.String(),
			Rows:     rows,
			Bytes:    rows * inWidth * DatumSize,
			Elapsed:  time.Since(start),
			SegRows:  counts[fi],
			Children: []*OpMetrics{node},
		}
	}
	rel := &relation{schema: schema, parts: out, distKey: outKey}
	if proj == nil {
		// The outermost Filter produced rel; let finishOp build its node (so
		// the fault counters drain there) on top of the inner chain.
		return rel, e.finishOp("Filter", filters[0].Pred.String(), rel, node.Children, 0, segTimes, start), nil
	}
	return rel, e.finishOp("Project", "", rel, []*OpMetrics{node}, 0, segTimes, start), nil
}

// newParts allocates a per-segment chunk set of empty chunks.
func (c *Cluster) newParts(ncols int) []*Chunk {
	parts := make([]*Chunk, c.segments)
	for i := range parts {
		parts[i] = newChunk(ncols, 0)
	}
	return parts
}

// redistribute hash-shuffles a relation so rows are placed by column key,
// returning the bytes moved between segments.
func (e *execEnv) redistribute(in *relation, key int) (*relation, int64, error) {
	if in.distKey == key {
		return in, 0, nil
	}
	return e.shuffle(in, key)
}

// shuffle is the radix-partitioned shuffle kernel behind every
// redistribution. Each source segment maps its rows to destinations by
// the key column's hash, or by the whole row's hash when key is NoDistKey
// (routeChunk), then radixPartitionChunk scatters them column-at-a-time
// into per-destination buckets backed by one pooled flat array; each
// destination concatenates its incoming buckets, after which the pooled
// backings are released. Rows that change segments are charged
// DatumWireSize bytes per value, the width of the canonical row encoding;
// output rows arrive in source-major order, stable within each source —
// both bit-identical to the historical counting shuffle (pinned by
// TestShuffleMatchesReference and the radix differential tests). Each task
// publishes into its own slot only when it completes, so a retried or
// cancelled task never leaves partial state behind.
func (e *execEnv) shuffle(in *relation, key int) (*relation, int64, error) {
	ncols := len(in.schema)
	segs := e.c.segments
	rowBytes := int64(ncols) * DatumWireSize
	// Phase 1: each source segment maps rows to destinations, then
	// radix-partitions them into per-destination buckets.
	buckets := make([][]*Chunk, segs) // [src][dst]
	flats := make([]*[]int64, segs)   // pooled bucket backings, released after phase 2
	moved := make([]int64, segs)
	err := e.parallel(func(src int) error {
		ch := in.parts[src]
		dp := getI32(ch.length)
		dests := (*dp)[:ch.length]
		routeChunk(ch, key, segs, dests)
		flat := getI64(ncols * ch.length)
		b := radixPartitionChunk(ch, dests, segs, *flat)
		*dp = dests
		putI32(dp)
		// Every row that is not in this source's own bucket crosses the
		// interconnect.
		moved[src] = int64(ch.length-b[src].length) * rowBytes
		buckets[src] = b
		flats[src] = flat
		return nil
	})
	releaseFlats := func() {
		for _, fp := range flats {
			if fp != nil {
				putI64(fp)
			}
		}
	}
	if err != nil {
		releaseFlats()
		return nil, 0, err
	}
	// Phase 2: each destination concatenates its incoming buckets, copying
	// them out of the pooled backings.
	out := make([]*Chunk, segs)
	err = e.parallel(func(dst int) error {
		pieces := make([]*Chunk, segs)
		for src := 0; src < segs; src++ {
			pieces[src] = buckets[src][dst]
		}
		out[dst] = concatChunks(ncols, pieces)
		return nil
	})
	releaseFlats()
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, m := range moved {
		total += m
	}
	e.c.addShuffleBytes(total)
	return &relation{schema: in.schema, parts: out, distKey: key}, total, nil
}

// encodeRow appends the canonical byte encoding of a row to buf: one null
// tag plus the 8-byte payload per value — DatumWireSize bytes per column,
// the width shuffle accounting charges (TestWireWidthAgreement locks the
// two together).
func encodeRow(buf []byte, row Row) []byte {
	for _, d := range row {
		if d.Null {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(d.Int))
		buf = append(buf, w[:]...)
	}
	return buf
}

// execGroupBy evaluates a grouped aggregation. Under ProfileMPP each
// segment pre-aggregates locally before the shuffle (map-side combine);
// under ProfileSparkSQL raw rows are shuffled, as Spark SQL's planner of
// the paper's era did for this query shape.
func (e *execEnv) execGroupBy(p GroupByPlan, start time.Time) (*relation, *OpMetrics, error) {
	c := e.c
	in, cm, err := e.exec(p.Input)
	if err != nil {
		return nil, nil, err
	}
	schema, err := p.Schema(c)
	if err != nil {
		return nil, nil, err
	}
	nk := len(p.Keys)

	// aggregateParts folds partial chunks (already in key+agg layout) per
	// segment into one row per group, timing each segment's fold.
	var segTimes []time.Duration
	aggregateParts := func(parts []*Chunk) ([]*Chunk, error) {
		out := make([]*Chunk, c.segments)
		var err error
		segTimes, err = e.parallelTimed(func(seg int) error {
			ch, gerr := e.foldSegment(seg, parts[seg], nk, p.Aggs, false)
			if gerr != nil {
				return gerr
			}
			out[seg] = ch
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	// Convert input chunks to partial layout.
	partial := make([]*Chunk, c.segments)
	err = e.parallel(func(seg int) error {
		ch, err := buildPartialChunk(in.parts[seg], p.Keys, p.Aggs)
		if err != nil {
			return err
		}
		partial[seg] = ch
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rel := &relation{schema: schema, parts: partial, distKey: NoDistKey}
	if nk > 0 && in.distKey != NoDistKey && p.Keys[0] == in.distKey {
		// Grouping by the distribution column: groups are already
		// co-located (single-key distribution).
		rel.distKey = 0
	}

	detail := fmt.Sprintf("keys=%v aggs=%d", p.Keys, len(p.Aggs))
	if c.profile == ProfileMPP {
		rel.parts, err = aggregateParts(rel.parts) // map-side combine
		if err != nil {
			return nil, nil, err
		}
		if rel.distKey == 0 {
			// Groups were co-located, so the combine was the whole
			// aggregation: every group is already one row on its segment.
			return rel, e.finishOp("GroupBy", detail, rel, []*OpMetrics{cm}, 0, segTimes, start), nil
		}
	}
	var moved int64
	if nk == 0 {
		// Global aggregate: gather everything to segment 0.
		all := concatChunks(len(schema), rel.parts)
		parts := c.newParts(len(schema))
		parts[0] = all
		rel = &relation{schema: schema, parts: parts, distKey: NoDistKey}
	} else if rel.distKey != 0 {
		rel, moved, err = e.redistribute(rel, 0)
		if err != nil {
			return nil, nil, err
		}
	}
	rel.parts, err = aggregateParts(rel.parts)
	if err != nil {
		return nil, nil, err
	}
	return rel, e.finishOp("GroupBy", detail, rel, []*OpMetrics{cm}, moved, segTimes, start), nil
}

// execJoin evaluates a distributed hash equi-join: both sides are
// redistributed by their join keys (if not already co-located), then each
// segment joins its share with the int64-keyed open-addressing hash table
// built on the right side.
func (e *execEnv) execJoin(p JoinPlan, start time.Time) (*relation, *OpMetrics, error) {
	c := e.c
	left, lm, err := e.exec(p.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rm, err := e.exec(p.Right)
	if err != nil {
		return nil, nil, err
	}
	if p.LeftKey < 0 || p.LeftKey >= len(left.schema) {
		return nil, nil, fmt.Errorf("engine: left join key %d out of range for %v", p.LeftKey, left.schema)
	}
	if p.RightKey < 0 || p.RightKey >= len(right.schema) {
		return nil, nil, fmt.Errorf("engine: right join key %d out of range for %v", p.RightKey, right.schema)
	}
	schema, err := p.Schema(c)
	if err != nil {
		return nil, nil, err
	}
	left, lmoved, err := e.redistribute(left, p.LeftKey)
	if err != nil {
		return nil, nil, err
	}
	right, rmoved, err := e.redistribute(right, p.RightKey)
	if err != nil {
		return nil, nil, err
	}

	out := make([]*Chunk, c.segments)
	segTimes, err := e.parallelTimed(func(seg int) error {
		ch, jerr := e.joinSegment(seg, left.parts[seg], right.parts[seg], p.LeftKey, p.RightKey, p.Kind)
		if jerr != nil {
			return jerr
		}
		out[seg] = ch
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rel := &relation{schema: schema, parts: out, distKey: p.LeftKey}
	op := "HashJoin"
	if p.Kind == LeftOuterJoin {
		op = "HashLeftJoin"
	}
	detail := fmt.Sprintf("$%d = $%d", p.LeftKey, p.RightKey)
	return rel, e.finishOp(op, detail, rel, []*OpMetrics{lm, rm}, lmoved+rmoved, segTimes, start), nil
}
