package sql

import (
	"fmt"
	"strings"

	"dbcc/internal/engine"
)

// FormatExplain renders a plain EXPLAIN report: the planned operator tree
// and its output column names.
func FormatExplain(plan engine.Plan, names engine.Schema) string {
	return fmt.Sprintf("%s -> %v", plan.String(), []string(names))
}

// FormatExplainAnalyze renders an EXPLAIN ANALYZE report: the executed
// operator tree annotated with the measured per-operator actuals (wall
// time, rows, bytes, shuffle traffic, retry/fault and spill counters) and
// the per-segment row/time breakdown, followed by the statement totals — the
// reproduction of an MPP database's "actual rows/time per operator per
// segment" report.
func FormatExplainAnalyze(root *engine.OpMetrics, names engine.Schema, totalRows int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "output: %v\n", []string(names))
	b.WriteString(root.Format())
	fmt.Fprintf(&b, "Total: rows=%d time=%s shuffle=%d bytes\n",
		totalRows, fmt.Sprintf("%.3fms", float64(root.Elapsed.Nanoseconds())/1e6), root.TotalShuffle())
	return b.String()
}
