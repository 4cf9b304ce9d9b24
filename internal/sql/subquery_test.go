package sql

import (
	"strings"
	"testing"
	"time"

	"dbcc/internal/engine"
)

// TestDerivedTableGroupByOverUnion groups and joins over a UNION ALL in
// FROM — the shape that computes a closed neighbourhood minimum from a
// canonical edge set.
func TestDerivedTableGroupByOverUnion(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "e", [][2]int64{{2, 1}, {3, 2}, {9, 7}})
	_, rows, err := s.Query(`
		select v, least(v, min(u)) as m
		from (select v1 as v, v2 as u from e union all select v2, v1 from e as e2) s
		group by v order by v`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 1}, {2, 1}, {3, 2}, {7, 7}, {9, 7}}
	if len(rows) != len(want) {
		t.Fatalf("rows %v, want %v", rows, want)
	}
	for i, w := range want {
		if rows[i][0].Int != w[0] || rows[i][1].Int != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}

	// Nested derived tables, joined to a stored table.
	_, rows, err = s.Query(`
		select count(*) as n
		from (select distinct v, w from (select v1 as v, v2 as w from e union all select v1, v2 from e as e2) as u) as d,
		     e as x
		where d.v = x.v1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 3 {
		t.Fatalf("distinct-union join count %v, want 3", rows[0][0])
	}

	if _, err := Parse("select 1 from (select 1)"); err == nil {
		t.Fatal("unaliased derived table accepted")
	}
}

// TestAliasColumnList renames a relation's columns positionally, so a
// statement can read a table whatever its columns are called.
func TestAliasColumnList(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("create table ab (a, b)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("insert into ab values (1, 2), (3, 4)"); err != nil {
		t.Fatal(err)
	}
	_, rows, err := s.Query("select sum(e.v2) as s from ab as e (v1, v2) where e.v1 > 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 4 {
		t.Fatalf("sum over renamed columns = %v, want 4", rows[0][0])
	}
	if _, _, err := s.Query("select a from ab as e (v1, v2)"); err == nil {
		t.Fatal("a renamed column is still visible under its stored name")
	}
	if _, _, err := s.Query("select v1 from ab as e (v1)"); err == nil || !strings.Contains(err.Error(), "alias lists 1") {
		t.Fatalf("short alias list: err = %v", err)
	}
}

// TestIsNull covers IS [NOT] NULL, including the anti-join form.
func TestIsNull(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	loadEdges(t, s, "b", [][2]int64{{2, 0}})
	_, rows, err := s.Query("select a.v1 from a left join b on a.v1 = b.v1 where b.v1 is null order by v1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int != 1 || rows[1][0].Int != 3 {
		t.Fatalf("anti-join rows %v, want [1 3]", rows)
	}
	_, rows, err = s.Query("select count(*) as n from a left join b on a.v1 = b.v1 where b.v2 is not null")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 1 {
		t.Fatalf("IS NOT NULL count %v, want 1", rows[0][0])
	}
	// IS binds looser than comparison: (v1 = 1) IS NOT NULL holds for
	// every row, not just the one with v1 = 1.
	_, rows, err = s.Query("select count(*) as n from a where v1 = 1 is not null")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 3 {
		t.Fatalf("(v1 = 1) IS NOT NULL count %v, want 3", rows[0][0])
	}
	if _, err := Parse("select v1 is not 1 from a"); err == nil {
		t.Fatal("IS NOT followed by a number accepted")
	}
}

// TestParameterisedSubqueryTemplateShared checks that a statement whose
// only tables are parameters — including inside derived tables — caches
// namespace-independently, so a second session's execution is a hit.
func TestParameterisedSubqueryTemplateShared(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 2})
	defer c.Close()
	if _, err := c.CreateTable("shared_edges", engine.Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows("shared_edges", []engine.Row{{engine.I(1), engine.I(2)}}); err != nil {
		t.Fatal(err)
	}
	const src = `select count(*) as n from (select v, w from $1 as e (v, w) where v != $2
		union all select w, v from $1 as e2 (v, w)) as s`
	for i, s := range []*Session{NewIsolatedSession(c), NewIsolatedSession(c)} {
		d := snapCounters(c)
		p, err := s.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err := p.Query(Table("shared_edges"), Int(0))
		if err != nil || rows[0][0].Int != 2 {
			t.Fatalf("session %d: %v %v", i, rows, err)
		}
		if i == 0 {
			d.expect(t, "first session", 1, 0, 1)
		} else {
			d.expect(t, "second session", 1, 1, 0)
		}
	}
	// A literal table inside a subquery pins the template to its namespace.
	p, err := NewIsolatedSession(c).Prepare("select count(*) as n from (select v1 from shared_edges) as s")
	if err != nil {
		t.Fatal(err)
	}
	if p.nsKeys[0] == "" {
		t.Fatal("a subquery naming a stored table was cached namespace-independently")
	}
}

// TestParseDeepNesting feeds the parser nesting far past its bound: 4 Mi
// parentheses (8 MiB of text, under the wire protocol's frame limit) must
// be a plain error, not a fatal stack overflow, and so must every other
// way of building a deep tree — calls, subqueries, operator and UNION ALL
// chains, which the planner and executor would otherwise recurse through.
// Nesting within the bound still parses.
func TestParseDeepNesting(t *testing.T) {
	const deep = 4 << 20
	src := "select " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep)
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("deeply parenthesised expression: err = %v", err)
	}
	over := maxDepth + 1
	for name, src := range map[string]string{
		"call":     "select " + strings.Repeat("f(", over) + "1" + strings.Repeat(")", over),
		"subquery": "select 1 from " + strings.Repeat("(select 1 from ", over) + "t" + strings.Repeat(") as s", over),
		"sum":      "select 1" + strings.Repeat(" + 1", over),
		"and":      "select 1 from t where 1 = 1" + strings.Repeat(" and 1 = 1", over),
		"union":    "select 1" + strings.Repeat(" union all select 1", over),
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s nested %d deep: err = %v", name, over, err)
		}
	}
	ok := maxDepth / 2
	if _, err := Parse("select " + strings.Repeat("(", ok) + "1" + strings.Repeat(")", ok)); err != nil {
		t.Fatalf("%d parentheses rejected: %v", ok, err)
	}
}

// TestDerivedTableChainPlannedOnce nests a derived table 40 deep, each level
// written between two comma-joined tables so the join search tries it
// before it can link. Every FROM item must be planned once: re-planning an
// item on each failed try would double the work at every level.
func TestDerivedTableChainPlannedOnce(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", [][2]int64{{1, 2}, {3, 4}})
	loadEdges(t, s, "b", [][2]int64{{1, 2}, {3, 4}})
	const depth = 40
	src := "select v1, v2 from a"
	for i := 0; i < depth; i++ {
		src = "select a.v1 as v1, s.v2 as v2 from a, (" + src + ") as s, b where a.v1 = b.v1 and b.v2 = s.v2"
	}
	sel, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		pp := &planParams{}
		if _, _, err := planSelectParams(s.Cluster(), sel.(*SelectQuery).Select, nil, pp); err != nil {
			t.Error(err)
		}
		done <- len(pp.deps)
	}()
	select {
	case deps := <-done:
		if want := 2*depth + 1; deps != want {
			t.Fatalf("planning recorded %d table reads, want %d (one per FROM item)", deps, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("planning a 40-deep derived-table chain did not finish in 30s")
	}
	_, rows, err := s.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %v, want 2", rows)
	}
}
