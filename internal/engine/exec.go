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

// rows is the relation's row count over every segment: the input size an
// operator over it hands parallel.
func (r *relation) rows() int64 {
	var n int64
	for _, ch := range r.parts {
		n += int64(ch.length)
	}
	return n
}

// statement is one executing statement: the caller's context, the
// execution environment of its plan and the trace record its table logic
// fills in. The environment is nil until open opens one, so a statement
// without a plan (INSERT) takes no statement number, leaving the fault
// schedule of later statements alone.
type statement struct {
	c      *Cluster
	ctx    context.Context
	e      *execEnv
	cancel context.CancelFunc
	rec    TraceRecord
}

// open opens the statement's execution environment under the
// per-statement deadline; the statement's epilogue closes the one and
// cancels the other.
func (s *statement) open() *execEnv {
	var ctx context.Context
	ctx, s.cancel = s.c.statementContext(s.ctx)
	s.e = s.c.newExecEnv(ctx)
	return s.e
}

// run executes the statement's plan in a fresh execution environment and
// records the plan and its operator profile in the trace record. The plan's
// text is rendered only if the record is ever read (Trace).
func (s *statement) run(p Plan) (*relation, error) {
	rel, root, err := s.open().exec(p)
	if err != nil {
		return nil, err
	}
	s.rec.plan, s.rec.Root, s.rec.Shuffle = p, root, root.TotalShuffle()
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
			if rel, placeShuffle, err = s.e.redistribute(rel, distKey, nil); err != nil {
				return err
			}
			s.rec.Shuffle += placeShuffle
		}
		// Publish the output chunks by reference: chunks are immutable,
		// and a table holds only fresh memory. The placement shuffle's
		// destinations are fresh; a root that needed none (it was already
		// placed, or the table has no distribution key) is copied out of
		// the statement's arena when a column points into it — a fold or
		// join output, or a projection aliasing a UNION ALL or scan
		// concatenation. One backing array holds every segment's
		// one-chunk list; appendChunk never appends in place.
		parts := make([][]*Chunk, c.segments)
		lists := make([]*Chunk, c.segments)
		for seg, ch := range rel.parts {
			if ch.length > 0 {
				if s.e.scratch.owns(ch) {
					ch = concatChunks(nil, len(ch.cols), []*Chunk{ch})
				}
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
		rows = c.appendRows(s, name, t, concatChunks(nil, len(t.Schema), rel.parts))
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
	segRows := make([]int64, len(rel.parts))
	for i, p := range rel.parts {
		segRows[i] = int64(p.length)
	}
	return e.opNode(op, detail, segRows, len(rel.schema), children, shuffle, segTimes, start)
}

// opNode is finishOp for an operator whose output rows per segment are
// counted rather than held: a join whose rows the pipeline above it
// consumed inside the join's own task. width is the operator's output
// width in columns.
func (e *execEnv) opNode(op, detail string, segRows []int64, width int, children []*OpMetrics,
	shuffle int64, segTimes []time.Duration, start time.Time) *OpMetrics {
	m := &OpMetrics{
		Op:       op,
		Detail:   detail,
		Shuffle:  shuffle,
		Elapsed:  time.Since(start),
		SegRows:  segRows,
		SegTimes: segTimes,
		Children: children,
	}
	for _, n := range segRows {
		m.Rows += n
	}
	m.Bytes = m.Rows * int64(width) * DatumSize
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
		// concatenated, on the worker pool, into the statement's arena.
		stored := t.snapshotParts()
		ncols := len(t.Schema)
		parts := make([]*Chunk, c.segments)
		concat := false
		var rows int64
		for seg, list := range stored {
			for _, ch := range list {
				rows += int64(ch.length)
			}
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
			err := e.parallel(rows, func(seg int) error {
				if len(stored[seg]) > 1 {
					parts[seg] = concatChunks(&e.scratch, ncols, stored[seg])
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

	case FilterPlan, ProjectPlan, JoinPlan:
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
		var rows int64
		for _, in := range ins {
			rows += in.rows()
		}
		out := make([]*Chunk, c.segments)
		err = e.parallel(rows, func(seg int) error {
			pieces := make([]*Chunk, len(ins))
			for i, in := range ins {
				pieces[i] = in.parts[seg]
			}
			out[seg] = concatChunks(&e.scratch, len(schema), pieces)
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
		shuffled, moved, err := e.shuffle(in, NoDistKey, &e.scratch) // by a hash of the whole row
		if err != nil {
			return nil, nil, err
		}
		out := make([]*Chunk, c.segments)
		segTimes, err := e.parallelTimed(shuffled.rows(), func(seg int) error {
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
	}
	return nil, nil, fmt.Errorf("engine: unknown plan node %T", p)
}

// pipeline is the Project?(Filter*) chain execPipeline runs over its
// source: a projection over zero or more filters, a filter chain alone,
// or, over a join, nothing at all, which passes the join's rows through.
type pipeline struct {
	filters []FilterPlan // outermost first
	proj    *ProjectPlan // nil: the surviving rows at full width
}

// execPipeline executes a Project?(Filter*(X)) chain — a projection over
// zero or more filters, or a filter chain alone — as one pipeline: the
// innermost predicate evaluates over the source's full chunk, every outer
// predicate only over the rows still selected, and the projection (when
// present) computes its expressions directly over the final selection into
// dense output vectors. No intermediate filtered chunk is ever
// materialised, yet the metrics tree carries one node per logical operator
// (EXPLAIN ANALYZE output keeps its shape; TestQueryAnalyzeMetrics'
// per-node invariants hold).
//
// A hash join is a pipeline source of its own, and a bare join is a
// pipeline with an empty chain: the chain runs inside the join's segment
// task over its match lists (execJoin, joinMatches.pipe), so the join
// gathers only the columns the chain reads, and the projection's only for
// the rows the filters keep. That task's time, faults and spills are
// charged to the join's node; the Filter and Project nodes above it keep
// their row counts and carry no segment times.
func (e *execEnv) execPipeline(p Plan, start time.Time) (*relation, *OpMetrics, error) {
	c := e.c
	pl, p := splitPipeline(p)
	var (
		in       *relation
		node     *OpMetrics
		rows     [][]int64 // rows[seg][fi]: the rows filter fi kept on segment seg
		segTimes []time.Duration
		err      error
	)
	if jp, ok := p.(JoinPlan); ok {
		in, node, rows, err = e.execJoin(jp, start, pl)
		if err != nil {
			return nil, nil, err
		}
		if len(pl.filters) == 0 && pl.proj == nil {
			return in, node, nil
		}
	} else {
		var src *relation
		if src, node, err = e.exec(p); err != nil {
			return nil, nil, err
		}
		in = &relation{schema: src.schema, parts: make([]*Chunk, c.segments), distKey: src.distKey}
		rows = make([][]int64, c.segments)
		segTimes, err = e.parallelTimed(src.rows(), func(seg int) error {
			r := make([]int64, len(pl.filters))
			ch, perr := pl.run(src.parts[seg], r, &e.scratch)
			if perr != nil {
				return perr
			}
			in.parts[seg], rows[seg] = ch, r
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	// in.parts holds the pipeline's output; in.schema and in.distKey are
	// still its source's.
	rel := &relation{schema: in.schema, parts: in.parts, distKey: in.distKey}
	if pl.proj != nil {
		if rel.schema, err = pl.proj.Schema(c); err != nil {
			return nil, nil, err
		}
		// A projection that passes the current distribution column through
		// unchanged preserves the distribution (filters never disturb it).
		rel.distKey = NoDistKey
		if in.distKey != NoDistKey {
			for i, col := range pl.proj.Cols {
				if ref, ok := col.Expr.(ColRef); ok && ref.Idx == in.distKey {
					rel.distKey = i
					break
				}
			}
		}
	}
	// Rebuild the per-operator metrics chain from the inside out; every
	// logical Filter gets its own node with its measured selectivity.
	inWidth := int64(len(in.schema))
	for fi := len(pl.filters) - 1; fi >= 0; fi-- {
		segRows := make([]int64, c.segments)
		var total int64
		for seg, r := range rows {
			segRows[seg] = r[fi]
			total += r[fi]
		}
		node = &OpMetrics{
			Op:       "Filter",
			Detail:   pl.filters[fi].Pred.String(),
			Rows:     total,
			Bytes:    total * inWidth * DatumSize,
			Elapsed:  time.Since(start),
			SegRows:  segRows,
			Children: []*OpMetrics{node},
		}
	}
	if pl.proj == nil {
		// The outermost Filter produced rel; let finishOp build its node (so
		// the fault counters drain there) on top of the inner chain.
		return rel, e.finishOp("Filter", node.Detail, rel, node.Children, 0, segTimes, start), nil
	}
	return rel, e.finishOp("Project", "", rel, []*OpMetrics{node}, 0, segTimes, start), nil
}

// splitPipeline splits a plan into its Project?(Filter*) chain and the
// chain's source.
func splitPipeline(p Plan) (pipeline, Plan) {
	var pl pipeline
	if pp, ok := p.(ProjectPlan); ok {
		pl.proj = &pp
		p = pp.Input
	}
	for {
		f, ok := p.(FilterPlan)
		if !ok {
			return pl, p
		}
		pl.filters = append(pl.filters, f)
		p = f.Input
	}
}

// run executes the pipeline over one chunk of its source: the filters
// select rows, the projection (or, without one, a gather) computes the
// output over the selection into memory taken from a. r[fi] gains the rows
// filter fi kept.
func (pl pipeline) run(ch *Chunk, r []int64, a *arena) (*Chunk, error) {
	// sel lists the selected rows; nil selects every row (evalRows), so a
	// projection without filters aliases or computes whole columns.
	var sel []int32
	if len(pl.filters) > 0 {
		kp, kept, err := pl.filter(ch, r, a)
		defer putI32(kp)
		if err != nil {
			return nil, err
		}
		sel = kept
	}
	if pl.proj == nil {
		return gatherChunk(a, ch, sel), nil
	}
	return pl.project(ch, sel, a)
}

// filter runs the filter chain over every row of ch, innermost filter
// first, each outer predicate over only the rows the inner ones kept. It
// returns the surviving rows, ascending, in a pooled box the caller
// releases with putI32 (on error too); r[fi] gains the rows filter fi
// kept. Predicates that do not run as selectCompare evaluate into vectors
// taken from a.
func (pl pipeline) filter(ch *Chunk, r []int64, a *arena) (*[]int32, []int32, error) {
	kp := getI32(ch.length)
	var sel []int32
	for fi := len(pl.filters) - 1; fi >= 0; fi-- {
		// Both forms compact in place: kept[j] is written only after
		// sel[i], i >= j, has been read.
		kept, ok := selectCompare(pl.filters[fi].Pred, ch, sel, *kp)
		if !ok {
			pv, err := evalRows(pl.filters[fi].Pred, ch, sel, a)
			if err != nil {
				return kp, nil, err
			}
			kept = (*kp)[:len(pv.vals)]
			j := 0
			for i, v := range pv.vals {
				row := int32(i)
				if sel != nil {
					row = sel[i]
				}
				kept[j] = row
				if v != 0 && !pv.null(i) {
					j++
				}
			}
			kept = kept[:j]
		}
		sel, *kp = kept, kept
		r[fi] += int64(len(sel))
	}
	return kp, sel, nil
}

// remove returns ch without the rows the filter chain selects, and how
// many rows that drops: ch itself when it drops none, nil when it drops
// every row (as a chain of no filters does), else a fresh chunk of the
// rows it keeps, which the table stores. The predicates evaluate into
// vectors taken from a. r[fi] gains the rows filter fi selected.
func (pl pipeline) remove(ch *Chunk, r []int64, a *arena) (*Chunk, int, error) {
	if len(pl.filters) == 0 {
		return nil, ch.length, nil
	}
	dp, dropped, err := pl.filter(ch, r, a)
	defer putI32(dp)
	switch {
	case err != nil:
		return nil, 0, err
	case len(dropped) == 0:
		return ch, 0, nil
	case len(dropped) == ch.length:
		return nil, ch.length, nil
	}
	kp := getI32(ch.length - len(dropped))
	defer putI32(kp)
	kept := *kp
	for row, d := 0, 0; row < ch.length; row++ {
		if d < len(dropped) && dropped[d] == int32(row) {
			d++
		} else {
			kept = append(kept, int32(row))
		}
	}
	*kp = kept
	return gatherChunk(nil, ch, kept), len(dropped), nil
}

// project evaluates the projection over the rows of ch that sel lists
// (every row when sel is nil) into dense output columns taken from a; a
// column reference without a selection aliases its input column.
func (pl pipeline) project(ch *Chunk, sel []int32, a *arena) (*Chunk, error) {
	n := ch.length
	if sel != nil {
		n = len(sel)
	}
	vecs := make([]colVec, len(pl.proj.Cols))
	for i, col := range pl.proj.Cols {
		v, err := evalRows(col.Expr, ch, sel, a)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	return chunkFromVecs(vecs, n), nil
}

// joinReads is the set of a join's output columns that a pipeline over
// it reads, split by where the join's segment task gathers them. The
// filters' columns are gathered at every match into pooled scratch. The
// projection's are gathered at the surviving matches only: a column it
// passes through unchanged into the output chunk (every column, when
// there is no projection), one only its computed expressions read into
// pooled scratch. A column nothing reads is never gathered.
type joinReads struct {
	filter  []int // read by a filter
	out     []int // passed through to the output
	scratch []int // read only by the projection's computed expressions
}

// reads computes the joinReads of the pipeline over a join of width
// columns.
func (pl pipeline) reads(width int) joinReads {
	filter, out, scratch := make([]bool, width), make([]bool, width), make([]bool, width)
	for _, f := range pl.filters {
		markCols(f.Pred, filter)
	}
	if pl.proj == nil {
		for c := range out {
			out[c] = true
		}
	} else {
		for _, col := range pl.proj.Cols {
			if ref, ok := col.Expr.(ColRef); ok {
				markCols(ref, out)
			} else {
				markCols(col.Expr, scratch)
			}
		}
	}
	var r joinReads
	for c := 0; c < width; c++ {
		if filter[c] {
			r.filter = append(r.filter, c)
		}
		if out[c] {
			r.out = append(r.out, c)
		} else if scratch[c] {
			r.scratch = append(r.scratch, c)
		}
	}
	return r
}

// markCols marks in cols every column e reads. An Expr type the engine
// does not know marks nothing: evaluating it fails its statement.
func markCols(e Expr, cols []bool) {
	switch e := e.(type) {
	case ColRef:
		if e.Idx >= 0 && e.Idx < len(cols) {
			cols[e.Idx] = true
		}
	case BinExpr:
		markCols(e.Left, cols)
		markCols(e.Right, cols)
	case IsNullExpr:
		markCols(e.Arg, cols)
	case CoalesceExpr:
		for _, a := range e.Args {
			markCols(a, cols)
		}
	case LeastExpr:
		for _, a := range e.Args {
			markCols(a, cols)
		}
	case UDFExpr:
		for _, a := range e.Args {
			markCols(a, cols)
		}
	}
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
// returning the bytes moved between segments. The destinations are taken
// from a (see shuffle).
func (e *execEnv) redistribute(in *relation, key int, a *arena) (*relation, int64, error) {
	if in.distKey == key {
		return in, 0, nil
	}
	return e.shuffle(in, key, a)
}

// shuffle is the partitioned shuffle behind every redistribution: route,
// count, gather. Phase 1 runs one task per source segment: it maps each
// row to a destination by the key column's hash, or by the whole row's
// hash when key is NoDistKey (routeChunk), then counts its rows per
// destination and sorts its row indices by destination into a pooled
// permutation (partitionRows). Phase 2 runs one task per destination: it
// takes its chunk once, at its final size, and gathers every source's
// slice of rows into it (gatherRows), so each value is copied once. A
// shuffle feeding a join, DISTINCT or group-by takes its destinations
// from the statement's arena a; the placement shuffle of CREATE TABLE AS
// passes nil, as its destinations become the table. Rows that change segments are charged DatumWireSize bytes per
// value, the width of the canonical row encoding; output rows arrive in
// source-major order, stable within each source — both bit-identical to
// the historical counting shuffle (pinned by TestShuffleMatchesReference
// and the partition differential tests). Each task writes only its own
// slots, so a retried task rewrites its own output; the permutations go
// back to the pool when the shuffle returns, on every path, and a failed
// or cancelled shuffle returns no relation.
func (e *execEnv) shuffle(in *relation, key int, a *arena) (*relation, int64, error) {
	ncols := len(in.schema)
	segs := e.c.segments
	bounds := make([]int32, segs*(segs+1)) // every source's routing bounds, one backing
	rts := make([]routing, segs)
	perms := make([]*[]int32, segs)
	defer func() {
		for _, pp := range perms {
			if pp != nil {
				putI32(pp)
			}
		}
	}()
	rows := in.rows()
	err := e.parallel(rows, func(src int) error {
		ch := in.parts[src]
		dp := getI32(ch.length)
		dests := (*dp)[:ch.length]
		routeChunk(ch, key, segs, dests)
		perms[src] = getI32(ch.length)
		rt := routing{bounds: bounds[src*(segs+1) : (src+1)*(segs+1)], perm: (*perms[src])[:ch.length]}
		partitionRows(dests, rt)
		putI32(dp)
		rts[src] = rt
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([]*Chunk, segs)
	err = e.parallel(rows, func(dst int) error {
		n := 0
		for _, rt := range rts {
			n += len(rt.rows(dst))
		}
		ch := a.chunk(ncols, n)
		gatherRows(ch, in.parts, rts, dst)
		out[dst] = ch
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Every row a source does not route to itself crosses the interconnect.
	var total int64
	for src, rt := range rts {
		total += int64(in.parts[src].length-len(rt.rows(src))) * int64(ncols) * DatumWireSize
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
	rows := in.rows()

	// aggregateParts folds partial chunks (already in key+agg layout) per
	// segment into one row per group, timing each segment's fold.
	var segTimes []time.Duration
	aggregateParts := func(parts []*Chunk) ([]*Chunk, error) {
		out := make([]*Chunk, c.segments)
		var err error
		segTimes, err = e.parallelTimed(rows, func(seg int) error {
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
	err = e.parallel(rows, func(seg int) error {
		ch, err := buildPartialChunk(in.parts[seg], p.Keys, p.Aggs, &e.scratch)
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
		all := concatChunks(&e.scratch, len(schema), rel.parts)
		parts := c.newParts(len(schema))
		parts[0] = all
		rel = &relation{schema: schema, parts: parts, distKey: NoDistKey}
	} else if rel.distKey != 0 {
		rel, moved, err = e.redistribute(rel, 0, &e.scratch)
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
// built on the right side and runs the pipeline pl over its matches in the
// same task (joinSegment). It returns pl's output chunks in a relation
// with the join's schema and distribution, the join's metrics node, whose
// rows are the matches before any filter, and per segment the rows each
// filter of pl kept.
func (e *execEnv) execJoin(p JoinPlan, start time.Time, pl pipeline) (*relation, *OpMetrics, [][]int64, error) {
	c := e.c
	left, lm, err := e.exec(p.Left)
	if err != nil {
		return nil, nil, nil, err
	}
	right, rm, err := e.exec(p.Right)
	if err != nil {
		return nil, nil, nil, err
	}
	if p.LeftKey < 0 || p.LeftKey >= len(left.schema) {
		return nil, nil, nil, fmt.Errorf("engine: left join key %d out of range for %v", p.LeftKey, left.schema)
	}
	if p.RightKey < 0 || p.RightKey >= len(right.schema) {
		return nil, nil, nil, fmt.Errorf("engine: right join key %d out of range for %v", p.RightKey, right.schema)
	}
	schema, err := p.Schema(c)
	if err != nil {
		return nil, nil, nil, err
	}
	left, lmoved, err := e.redistribute(left, p.LeftKey, &e.scratch)
	if err != nil {
		return nil, nil, nil, err
	}
	right, rmoved, err := e.redistribute(right, p.RightKey, &e.scratch)
	if err != nil {
		return nil, nil, nil, err
	}

	reads := pl.reads(len(schema))
	nf := len(pl.filters)
	out := make([]*Chunk, c.segments)
	rows := make([][]int64, c.segments)
	matches := make([]int64, c.segments)
	segTimes, err := e.parallelTimed(left.rows()+right.rows(), func(seg int) error {
		r := make([]int64, nf+1) // the filters' kept rows, then the matches
		ch, jerr := e.joinSegment(seg, left.parts[seg], right.parts[seg], p, pl, reads, r)
		if jerr != nil {
			return jerr
		}
		out[seg], rows[seg], matches[seg] = ch, r[:nf], r[nf]
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	op := "HashJoin"
	if p.Kind == LeftOuterJoin {
		op = "HashLeftJoin"
	}
	detail := fmt.Sprintf("$%d = $%d", p.LeftKey, p.RightKey)
	node := e.opNode(op, detail, matches, len(schema), []*OpMetrics{lm, rm}, lmoved+rmoved, segTimes, start)
	return &relation{schema: schema, parts: out, distKey: p.LeftKey}, node, rows, nil
}
