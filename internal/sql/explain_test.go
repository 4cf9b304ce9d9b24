package sql

import (
	"regexp"
	"strings"
	"testing"
)

// explainSession returns a session with an edge table and a label table
// for join + group-by profiling queries.
func explainSession(t *testing.T) *Session {
	t.Helper()
	s := newSession(t)
	loadEdges(t, s, "e", [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 6}})
	loadEdges(t, s, "lab", [][2]int64{{1, 10}, {2, 10}, {3, 10}, {4, 10}, {5, 20}, {6, 20}})
	return s
}

const joinGroupBySQL = `
	select lab.v2 c, count(*) n
	from e, lab
	where e.v1 = lab.v1
	group by lab.v2`

func TestExplainAnalyzeJoinGroupBy(t *testing.T) {
	s := explainSession(t)

	// Ground truth via plain execution: edges with v1 in {1..4} carry
	// label 10 (4 rows), v1 = 5 carries label 20 (1 row).
	_, rows, err := s.Query(joinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query produced %d rows, want 2", len(rows))
	}

	out, err := s.Explain("explain analyze " + joinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"HashJoin", "GroupBy", "Scan(e)", "Scan(lab)"} {
		if !strings.Contains(out, op) {
			t.Fatalf("EXPLAIN ANALYZE output missing operator %s:\n%s", op, out)
		}
	}
	// Every operator line carries measured actuals; every operator is
	// followed by its per-segment breakdown.
	actual := regexp.MustCompile(`actual time=\d+\.\d{3}ms rows=\d+ bytes=\d+`)
	if got := len(actual.FindAllString(out, -1)); got < 4 {
		t.Fatalf("found %d operator actual annotations, want >= 4:\n%s", got, out)
	}
	segRe := regexp.MustCompile(`seg rows=\[[0-9 ]+\]`)
	if got := len(segRe.FindAllString(out, -1)); got < 4 {
		t.Fatalf("found %d per-segment breakdowns, want >= 4:\n%s", got, out)
	}
	// The per-segment counts of every operator have one entry per segment.
	segs := s.Cluster().Segments()
	for _, m := range segRe.FindAllString(out, -1) {
		counts := strings.Fields(m[len("seg rows=[") : len(m)-1])
		if len(counts) != segs {
			t.Fatalf("segment breakdown %q has %d entries, want %d", m, len(counts), segs)
		}
	}
	// The statement totals line reports the executed row count.
	if !strings.Contains(out, "Total: rows=2 time=") {
		t.Fatalf("EXPLAIN ANALYZE output missing totals line:\n%s", out)
	}
	// The join's measured output count is the 5 matched edge rows.
	joinLine := regexp.MustCompile(`HashJoin[^\n]*rows=(\d+)`).FindStringSubmatch(out)
	if joinLine == nil || joinLine[1] != "5" {
		t.Fatalf("HashJoin actual rows = %v, want 5:\n%s", joinLine, out)
	}
}

func TestExplainAnalyzeViaExec(t *testing.T) {
	s := explainSession(t)
	// Executing EXPLAIN ANALYZE as a statement runs the query and reports
	// its row count; plain EXPLAIN only plans and reports zero.
	n, err := s.Exec("explain analyze " + joinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("EXPLAIN ANALYZE reported %d rows, want 2", n)
	}
	n, err = s.Exec("explain " + joinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("plain EXPLAIN reported %d rows, want 0", n)
	}
}

func TestExplainAnalyzeMethod(t *testing.T) {
	s := explainSession(t)
	// ExplainAnalyze profiles a bare SELECT without the prefix.
	out, err := s.ExplainAnalyze("select v1 from e where v1 < 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Filter") || !strings.Contains(out, "actual time=") {
		t.Fatalf("ExplainAnalyze output missing profile:\n%s", out)
	}
	if !strings.Contains(out, "output: [v1]") {
		t.Fatalf("ExplainAnalyze output missing column header:\n%s", out)
	}
}

func TestExplainAnalyzeRefusesCTAS(t *testing.T) {
	s := explainSession(t)
	// ExplainAnalyze executes, and would have to create the table, so it
	// refuses CREATE TABLE AS; plain Explain only plans its SELECT.
	const ctas = "create table x as select v1 from e"
	if _, err := s.ExplainAnalyze(ctas); err == nil || !strings.Contains(err.Error(), "requires a SELECT") {
		t.Fatalf("ExplainAnalyze of a CTAS: %v", err)
	}
	if _, ok := s.Cluster().Table("x"); ok {
		t.Fatal("ExplainAnalyze of a CTAS created its table")
	}
	if _, err := s.Explain(ctas); err != nil {
		t.Fatalf("Explain of a CTAS: %v", err)
	}
}

func TestPlainExplainUnchanged(t *testing.T) {
	s := explainSession(t)
	out, err := s.Explain("explain select v1, count(*) n from e group by v1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "actual time=") {
		t.Fatalf("plain EXPLAIN must not execute or annotate:\n%s", out)
	}
	if !strings.Contains(out, "GroupBy") {
		t.Fatalf("plain EXPLAIN missing plan:\n%s", out)
	}
}
