package engine

import (
	"fmt"
	"strings"
	"time"
)

// OpMetrics is the measured execution profile of one operator of an
// executed plan: the per-operator "actual" numbers an EXPLAIN ANALYZE
// renders next to the planned tree. Every execution of a plan produces one
// OpMetrics node per operator, mirroring the plan tree shape.
//
// Elapsed is inclusive wall time (the operator and everything below it),
// matching the convention of PostgreSQL's "actual time". SegRows and
// SegTimes expose the per-segment distribution of the operator's output
// and compute time — the skew signal an MPP operator profile is read for.
type OpMetrics struct {
	Op        string          // operator name: Scan, Filter, HashJoin, ...
	Detail    string          // operator argument: table name, keys, ...
	Rows      int64           // total output rows
	Bytes     int64           // modelled output bytes (rows × width × DatumSize)
	Shuffle   int64           // bytes redistributed between segments by this operator
	Elapsed   time.Duration   // inclusive wall time of this subtree
	SegRows   []int64         // output rows per segment
	SegTimes  []time.Duration // compute time per segment of the operator's parallel phase (nil if none)
	Retries   int64           // segment-task retries performed by this operator
	Faults    int64           // injected segment faults observed by this operator
	Cancelled int64           // segment tasks abandoned by cancellation in this operator

	// Memory-bounded execution: this operator's disk-spill activity.
	Spilled     int64 // bytes written to spill files
	SpillParts  int64 // partition/run files created
	SpillPasses int64 // partitioning / run-formation passes

	// Deprecated: the engine no longer prunes joins with bloom filters, so
	// BloomChecked and BloomSkipped are always zero. They remain only
	// because the benchmark harness still reads them; the next benchmark
	// change removes them.
	BloomChecked int64
	BloomSkipped int64

	Children []*OpMetrics
}

// TotalShuffle sums the redistribution traffic of the whole subtree.
func (m *OpMetrics) TotalShuffle() int64 {
	if m == nil {
		return 0
	}
	total := m.Shuffle
	for _, ch := range m.Children {
		total += ch.TotalShuffle()
	}
	return total
}

// TotalRetries sums the segment-task retries of the whole subtree.
func (m *OpMetrics) TotalRetries() int64 {
	if m == nil {
		return 0
	}
	total := m.Retries
	for _, ch := range m.Children {
		total += ch.TotalRetries()
	}
	return total
}

// TotalFaults sums the injected segment faults of the whole subtree.
func (m *OpMetrics) TotalFaults() int64 {
	if m == nil {
		return 0
	}
	total := m.Faults
	for _, ch := range m.Children {
		total += ch.TotalFaults()
	}
	return total
}

// TotalCancelled sums the cancelled segment tasks of the whole subtree.
func (m *OpMetrics) TotalCancelled() int64 {
	if m == nil {
		return 0
	}
	total := m.Cancelled
	for _, ch := range m.Children {
		total += ch.TotalCancelled()
	}
	return total
}

// TotalSpilled sums the spill bytes of the whole subtree.
func (m *OpMetrics) TotalSpilled() int64 {
	if m == nil {
		return 0
	}
	total := m.Spilled
	for _, ch := range m.Children {
		total += ch.TotalSpilled()
	}
	return total
}

// MaxSegRows returns the largest per-segment output row count, the
// numerator of the skew ratio.
func (m *OpMetrics) MaxSegRows() int64 {
	var mx int64
	for _, n := range m.SegRows {
		if n > mx {
			mx = n
		}
	}
	return mx
}

// Skew returns max/mean of the per-segment output row counts (1.0 means
// perfectly balanced; 0 when the operator produced no rows).
func (m *OpMetrics) Skew() float64 {
	if m.Rows == 0 || len(m.SegRows) == 0 {
		return 0
	}
	mean := float64(m.Rows) / float64(len(m.SegRows))
	return float64(m.MaxSegRows()) / mean
}

// Format renders the metrics tree as indented text, one operator per line
// with its actual rows, bytes and wall time, followed by the per-segment
// row and time breakdown.
func (m *OpMetrics) Format() string {
	var b strings.Builder
	m.format(&b, 0)
	return b.String()
}

func (m *OpMetrics) format(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	prefix := ""
	if depth > 0 {
		prefix = "-> "
	}
	detail := ""
	if m.Detail != "" {
		detail = "(" + m.Detail + ")"
	}
	fmt.Fprintf(b, "%s%s%s%s (actual time=%s rows=%d bytes=%d", indent, prefix, m.Op, detail,
		fmtDuration(m.Elapsed), m.Rows, m.Bytes)
	if m.Shuffle > 0 {
		fmt.Fprintf(b, " shuffle=%d", m.Shuffle)
	}
	if m.Retries > 0 || m.Faults > 0 {
		fmt.Fprintf(b, " retries=%d faults=%d", m.Retries, m.Faults)
	}
	if m.Cancelled > 0 {
		fmt.Fprintf(b, " cancelled=%d", m.Cancelled)
	}
	if m.Spilled > 0 {
		fmt.Fprintf(b, " spilled=%d parts=%d passes=%d", m.Spilled, m.SpillParts, m.SpillPasses)
	}
	b.WriteString(")\n")
	if len(m.SegRows) > 0 {
		fmt.Fprintf(b, "%s   seg rows=%s", indent, fmtInt64s(m.SegRows))
		if len(m.SegTimes) > 0 {
			fmt.Fprintf(b, " times=%s", fmtDurations(m.SegTimes))
		}
		if m.Rows > 0 {
			fmt.Fprintf(b, " skew=%.2f", m.Skew())
		}
		b.WriteString("\n")
	}
	for _, ch := range m.Children {
		ch.format(b, depth+1)
	}
}

// fmtDuration renders a duration with fixed millisecond precision so
// explain output stays visually aligned.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}

func fmtInt64s(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fmtDurations(xs []time.Duration) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmtDuration(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TraceRecord is one entry of the cluster's query-trace ring buffer: the
// full execution profile of one statement, the per-query granularity the
// paper's r.log_exec driver records.
type TraceRecord struct {
	Seq     int64         // statement sequence number (monotonic per cluster)
	Kind    string        // "create", "select", "insert", "delete" or "index"
	Target  string        // created/inserted table name ("" for selects)
	Plan    string        // planned operator tree, as Plan.String()
	Rows    int64         // rows written (creates/inserts) or returned (selects)
	Bytes   int64         // bytes written (creates/inserts) or returned (selects)
	Shuffle int64         // bytes redistributed between segments
	Start   time.Time     // wall-clock start of execution
	Elapsed time.Duration // total execution wall time
	Root    *OpMetrics    // per-operator profile (nil for InsertRows and deletes, which run no plan)

	// plan is the executed plan while its ring slot has not been read:
	// Trace renders it into Plan the first time it copies the slot out.
	// Plans are immutable values, so the text is what String gave when
	// the statement ran.
	plan Plan
}

// traceCapacity is the size of the query-trace ring buffer.
const traceCapacity = 256

// Trace returns the contents of the query-trace ring buffer, oldest first.
// The ring holds the most recent traceCapacity statements; older records
// are overwritten.
func (c *Cluster) Trace() []TraceRecord {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	for i := range c.trace {
		if rec := &c.trace[i]; rec.plan != nil {
			rec.Plan, rec.plan = rec.plan.String(), nil
		}
	}
	out := make([]TraceRecord, 0, len(c.trace))
	if len(c.trace) < c.traceCap {
		out = append(out, c.trace...)
	} else {
		// The ring is full: the oldest record sits at the next write slot.
		at := int(c.traceSeq) % c.traceCap
		out = append(out, c.trace[at:]...)
		out = append(out, c.trace[:at]...)
	}
	return out
}

// addTrace appends one statement record to the ring buffer and adds its
// operator profile's fault-tolerance counters to the cluster totals.
func (c *Cluster) addTrace(rec TraceRecord) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	rec.Seq = c.traceSeq
	if len(c.trace) < c.traceCap {
		c.trace = append(c.trace, rec)
	} else {
		c.trace[int(c.traceSeq)%c.traceCap] = rec
	}
	c.traceSeq++
	c.stats.TaskRetries += rec.Root.TotalRetries()
	c.stats.TaskFaults += rec.Root.TotalFaults()
	c.stats.TaskCancelled += rec.Root.TotalCancelled()
}
