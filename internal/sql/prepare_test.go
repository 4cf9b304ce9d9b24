package sql

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dbcc/internal/engine"
	"dbcc/internal/gf"
)

// planDeltas captures the cluster's parse/plan-cache counters so tests can
// assert exact deltas across a few statements.
type planDeltas struct {
	c                    *engine.Cluster
	parses, hits, misses int64
}

// planCounters reads the parse and plan-cache counters from a Stats
// snapshot.
func planCounters(c *engine.Cluster) (parses, hits, misses int64) {
	st := c.Stats()
	return st.Parses, st.PlanCacheHits, st.PlanCacheMisses
}

func snapCounters(c *engine.Cluster) *planDeltas {
	p, h, m := planCounters(c)
	return &planDeltas{c: c, parses: p, hits: h, misses: m}
}

func (d *planDeltas) delta() (parses, hits, misses int64) {
	p, h, m := planCounters(d.c)
	return p - d.parses, h - d.hits, m - d.misses
}

func (d *planDeltas) expect(t *testing.T, what string, parses, hits, misses int64) {
	t.Helper()
	p, h, m := d.delta()
	if p != parses || h != hits || m != misses {
		t.Fatalf("%s: parses/hits/misses = %d/%d/%d, want %d/%d/%d",
			what, p, h, m, parses, hits, misses)
	}
	d.parses, d.hits, d.misses = planCounters(d.c)
}

// TestPreparedValueParams checks a value-parameterised SELECT parses once
// and serves every subsequent execution from the cached template.
func TestPreparedValueParams(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}, {2, 3}, {3, 4}})

	d := snapCounters(s.Cluster())
	p, err := s.Prepare("SELECT v1, v2 FROM e WHERE v1 = $1")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 || p.ParamIsTable(1) || !p.IsQuery() {
		t.Fatalf("shape: params=%d table=%v query=%v", p.NumParams(), p.ParamIsTable(1), p.IsQuery())
	}
	d.expect(t, "prepare", 1, 0, 0)

	_, rows, err := p.Query(Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 2 || rows[0][1].Int != 3 {
		t.Fatalf("first execute: %v", rows)
	}
	d.expect(t, "first execute", 0, 0, 1)

	// Different binding, same template: a hit with no parse.
	_, rows, err = p.Query(Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].Int != 4 {
		t.Fatalf("rebind: %v", rows)
	}
	d.expect(t, "rebind", 0, 1, 0)

	// NULL binds through the same template; v1 = NULL matches nothing.
	if _, rows, err = p.Query(Null()); err != nil || len(rows) != 0 {
		t.Fatalf("null binding: %d rows, %v", len(rows), err)
	}
	d.expect(t, "null binding", 0, 1, 0)
}

// TestPreparedTableParamRenameDance drives the pattern the CC round loops
// depend on: one prepared statement with table parameters keeps hitting one
// cached plan while the concrete tables are created, renamed and dropped
// around it.
func TestPreparedTableParamRenameDance(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "base", [][2]int64{{1, 2}, {3, 4}, {5, 6}})

	d := snapCounters(s.Cluster())
	copyStmt, err := s.Prepare("CREATE TABLE $1 AS SELECT x.v1 AS v1, x.v2 AS v2 FROM $2 AS x")
	if err != nil {
		t.Fatal(err)
	}
	if !copyStmt.ParamIsTable(1) || !copyStmt.ParamIsTable(2) {
		t.Fatal("both parameters should be table parameters")
	}
	cnt, err := s.Prepare("SELECT count(*) AS n FROM $1 AS g")
	if err != nil {
		t.Fatal(err)
	}
	d.expect(t, "prepares", 2, 0, 0)

	if _, err := copyStmt.Exec(Table("r1"), Table("base")); err != nil {
		t.Fatal(err)
	}
	d.expect(t, "first copy", 0, 0, 1)
	// Round 2 reads the round-1 output — same shape, different tables: hit.
	if _, err := copyStmt.Exec(Table("r2"), Table("r1")); err != nil {
		t.Fatal(err)
	}
	d.expect(t, "second copy", 0, 1, 0)

	if _, rows, err := cnt.Query(Table("r2")); err != nil || len(rows) != 1 || rows[0][0].Int != 3 {
		t.Fatalf("count over r2: %v %v", rows, err)
	}
	d.expect(t, "first count", 0, 0, 1)

	// The rename dance: drop the old generation, rename the new into its
	// place, and keep executing the same handles.
	if _, err := s.Exec("DROP TABLE r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ALTER TABLE r2 RENAME TO r1"); err != nil {
		t.Fatal(err)
	}
	d.parses, d.hits, d.misses = planCounters(s.Cluster())
	if _, rows, err := cnt.Query(Table("r1")); err != nil || rows[0][0].Int != 3 {
		t.Fatalf("count after rename: %v %v", rows, err)
	}
	d.expect(t, "count after rename", 0, 1, 0)

	// Binding a dropped table fails cleanly — replan, typed engine error,
	// never stale rows.
	if _, _, err := cnt.Query(Table("r2")); err == nil {
		t.Fatal("query against dropped table succeeded")
	}
}

// TestPreparedDDLScript checks a multi-statement prepared script of pure
// DDL (the generation-swap idiom) takes its table names from the
// arguments.
func TestPreparedDDLScript(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "gen_old", [][2]int64{{1, 2}})
	loadEdges(t, s, "gen_new", [][2]int64{{3, 4}, {5, 6}})

	p, err := s.Prepare("DROP TABLE $1; ALTER TABLE $2 RENAME TO $1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(Table("gen_old"), Table("gen_new")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cluster().Table("gen_new"); ok {
		t.Fatal("gen_new still exists after swap")
	}
	tbl, ok := s.Cluster().Table("gen_old")
	if !ok || tbl.Rows() != 2 {
		t.Fatalf("gen_old after swap: ok=%v", ok)
	}
}

// TestPreparedInsert checks prepared INSERT executes with fresh values per
// round without re-parsing (the loadgen hot path).
func TestPreparedInsert(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	if _, err := s.Exec("CREATE TABLE sink (a, b)"); err != nil {
		t.Fatal(err)
	}
	d := snapCounters(s.Cluster())
	p, err := s.Prepare("INSERT INTO $1 VALUES ($2, $3), ($4, $5)")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		n, err := p.Exec(Table("sink"), Int(i), Int(i+1), Int(-i), Null())
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("insert reported %d rows", n)
		}
	}
	// One parse at Prepare; INSERT is not cache-eligible so the plan-cache
	// counters stay untouched.
	d.expect(t, "prepared inserts", 1, 0, 0)
	tbl, _ := s.Cluster().Table("sink")
	if tbl.Rows() != 8 {
		t.Fatalf("sink has %d rows, want 8", tbl.Rows())
	}
}

// TestBindErrors checks every binding failure is a typed *BindError.
func TestBindErrors(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}})
	p, err := s.Prepare("SELECT x.v1 AS v1 FROM $1 AS x WHERE x.v1 = $2")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []Arg
		frag string
	}{
		{"too few", []Arg{Table("e")}, "2 parameter(s), got 1"},
		{"too many", []Arg{Table("e"), Int(1), Int(2)}, "2 parameter(s), got 3"},
		{"value for table", []Arg{Int(1), Int(2)}, "$1 is a table name"},
		{"table for value", []Arg{Table("e"), Table("e")}, "$2 is a value"},
		{"empty table name", []Arg{Table(""), Int(1)}, "empty table name"},
	}
	for _, tc := range cases {
		_, err := p.Bind(tc.args...)
		var be *BindError
		if !errors.As(err, &be) {
			t.Fatalf("%s: error %v is not a *BindError", tc.name, err)
		}
		if !strings.Contains(be.Error(), tc.frag) {
			t.Fatalf("%s: %q does not mention %q", tc.name, be.Error(), tc.frag)
		}
		// Exec and Query surface the same typed error.
		if _, err := p.Exec(tc.args...); !errors.As(err, &be) {
			t.Fatalf("%s: Exec error %v is not a *BindError", tc.name, err)
		}
	}
	if _, err := p.Bind(Table("e")); err != nil {
		var be *BindError
		errors.As(err, &be)
		if be.Want != 2 || be.Got != 1 {
			t.Fatalf("count mismatch fields: want=%d got=%d", be.Want, be.Got)
		}
	}
}

// TestPrepareRejectsMalformedParams checks parameter numbering and kind
// consistency are enforced at Prepare time.
func TestPrepareRejectsMalformedParams(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	if _, err := s.Prepare("SELECT v1 FROM e WHERE v1 = $2"); err == nil ||
		!strings.Contains(err.Error(), "$1 is unused") {
		t.Fatalf("noncontiguous params: %v", err)
	}
	if _, err := s.Prepare("SELECT $1 AS k FROM $1 AS x"); err == nil ||
		!strings.Contains(err.Error(), "both as a value and as a table") {
		t.Fatalf("value/table conflict: %v", err)
	}
}

// TestExecRejectsUnpreparedParams checks $N never executes through the
// text entry points.
func TestExecRejectsUnpreparedParams(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}})
	if _, err := s.Exec("SELECT v1 FROM e WHERE v1 = $1"); err == nil ||
		!strings.Contains(err.Error(), "use Prepare") {
		t.Fatalf("Exec with params: %v", err)
	}
	if _, _, err := s.Query("SELECT v1 FROM e WHERE v1 = $1"); err == nil ||
		!strings.Contains(err.Error(), "use Prepare") {
		t.Fatalf("Query with params: %v", err)
	}
}

// TestTextPlanCache checks unparameterised Session.Exec/Query texts also
// parse once: the second execution of the same normalized text is a
// parse-free cache hit, including across case and whitespace variation.
func TestTextPlanCache(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}, {2, 3}})

	d := snapCounters(s.Cluster())
	if _, _, err := s.Query("SELECT count(*) AS n FROM e"); err != nil {
		t.Fatal(err)
	}
	d.expect(t, "first text query", 1, 0, 1)
	if _, _, err := s.Query("SELECT count(*) AS n FROM e"); err != nil {
		t.Fatal(err)
	}
	d.expect(t, "repeat text query", 0, 1, 0)
	// Normalization is token-based: case and spacing differences share the
	// cached plan.
	if _, rows, err := s.Query("select   COUNT(*)  as N from E"); err != nil || rows[0][0].Int != 2 {
		t.Fatalf("case-variant query: %v %v", rows, err)
	}
	d.expect(t, "case-variant query", 0, 1, 0)
}

// TestInvalidationDropCreate checks DDL on a fixed dependency evicts the
// cached plan and the next execution replans against the new catalog state.
func TestInvalidationDropCreate(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "inv", [][2]int64{{1, 2}, {3, 4}})

	p, err := s.Prepare("SELECT count(*) AS n FROM inv")
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, err := p.Query(); err != nil || rows[0][0].Int != 2 {
		t.Fatalf("before DDL: %v %v", rows, err)
	}
	inval0 := s.Cluster().Stats().PlanCacheInvalidations

	// Replace the table wholesale with a different schema and cardinality.
	if _, err := s.Exec("DROP TABLE inv"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE inv (k)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster().InsertRows("inv", []engine.Row{{engine.I(7)}, {engine.I(8)}, {engine.I(9)}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Cluster().Stats().PlanCacheInvalidations; got <= inval0 {
		t.Fatalf("DDL did not count invalidations: %d -> %d", inval0, got)
	}

	d := snapCounters(s.Cluster())
	_, rows, err := p.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 3 {
		t.Fatalf("stale plan executed: count=%d, want 3", rows[0][0].Int)
	}
	d.expect(t, "post-DDL execute", 0, 0, 1)
}

// TestInvalidationRename checks a plan over a renamed-away table never
// executes stale: it fails cleanly, and once a new table takes the old
// name the handle replans against it.
func TestInvalidationRename(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "ren", [][2]int64{{1, 2}})

	p, err := s.Prepare("SELECT count(*) AS n FROM ren")
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, err := p.Query(); err != nil || rows[0][0].Int != 1 {
		t.Fatalf("before rename: %v %v", rows, err)
	}
	if _, err := s.Exec("ALTER TABLE ren RENAME TO ren_moved"); err != nil {
		t.Fatal(err)
	}
	// The old name resolves to nothing now; returning the moved table's
	// rows here would be the stale-plan bug.
	if _, _, err := p.Query(); err == nil {
		t.Fatal("prepared plan executed against a renamed-away table")
	}
	// A different table claiming the name must be what the handle now reads.
	loadEdges(t, s, "ren", [][2]int64{{5, 6}, {7, 8}, {9, 10}})
	if _, rows, err := p.Query(); err != nil || rows[0][0].Int != 3 {
		t.Fatalf("after re-create: %v %v", rows, err)
	}
}

// TestInvalidationCrossSession checks DDL issued by one session over a
// shared namespace invalidates plans another session cached — the
// multi-tenant server's connections-of-one-tenant topology.
func TestInvalidationCrossSession(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 2})
	defer c.Close()
	sA := SessionWithNamespace(c, "tn_acme_")
	sB := SessionWithNamespace(c, "tn_acme_")

	if _, err := sA.Exec("CREATE TABLE src (v1, v2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sA.Exec("INSERT INTO src VALUES (1, 2), (3, 4)"); err != nil {
		t.Fatal(err)
	}
	p, err := sA.Prepare("SELECT count(*) AS n FROM src")
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, err := p.Query(); err != nil || rows[0][0].Int != 2 {
		t.Fatalf("session A before B's DDL: %v %v", rows, err)
	}

	// Session B swaps the table out from under A's cached plan.
	if _, err := sB.Exec("DROP TABLE src"); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Exec("CREATE TABLE src (k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Exec("INSERT INTO src VALUES (7)"); err != nil {
		t.Fatal(err)
	}

	d := snapCounters(c)
	_, rows, err := p.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 1 {
		t.Fatalf("session A saw stale plan after B's DDL: count=%d, want 1", rows[0][0].Int)
	}
	d.expect(t, "cross-session replan", 0, 0, 1)
}

// TestAllParamTemplateSharedAcrossNamespaces checks fully parameterised
// statements cache namespace-independent templates: a second session with
// a different temp namespace hits the template the first session built.
func TestAllParamTemplateSharedAcrossNamespaces(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 2})
	defer c.Close()
	if _, err := c.CreateTable("shared_edges", engine.Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertRows("shared_edges", []engine.Row{{engine.I(1), engine.I(2)}}); err != nil {
		t.Fatal(err)
	}

	sA := NewIsolatedSession(c)
	sB := NewIsolatedSession(c)
	const src = "SELECT count(*) AS n FROM $1 AS g"
	pA, err := sA.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pA.Query(Table("shared_edges")); err != nil {
		t.Fatal(err)
	}

	d := snapCounters(c)
	pB, err := sB.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, err := pB.Query(Table("shared_edges")); err != nil || rows[0][0].Int != 1 {
		t.Fatalf("session B: %v %v", rows, err)
	}
	// One parse for B's Prepare; execution hits A's template.
	d.expect(t, "shared template", 1, 1, 0)
}

// TestResetStatsKeepsTemplatesWarm checks clearing statistics does not
// throw cached plans away: the next execution is still a hit.
func TestResetStatsKeepsTemplatesWarm(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "w", [][2]int64{{1, 2}})
	p, err := s.Prepare("SELECT count(*) AS n FROM w")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Query(); err != nil {
		t.Fatal(err)
	}
	s.Cluster().ResetStats()
	if parses, hits, misses := planCounters(s.Cluster()); parses != 0 || hits != 0 || misses != 0 {
		t.Fatalf("ResetStats left counters: %d/%d/%d", parses, hits, misses)
	}
	if _, _, err := p.Query(); err != nil {
		t.Fatal(err)
	}
	if parses, hits, misses := planCounters(s.Cluster()); parses != 0 || hits != 1 || misses != 0 {
		t.Fatalf("post-reset execute: parses/hits/misses = %d/%d/%d, want 0/1/0", parses, hits, misses)
	}
}

// TestExplainAnalyzePlanCacheLine checks the profile report surfaces the
// plan-cache counters.
func TestExplainAnalyzePlanCacheLine(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}})
	out, err := s.ExplainAnalyze("SELECT v1, v2 FROM e")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Plan cache:") {
		t.Fatalf("EXPLAIN ANALYZE lacks the plan-cache line:\n%s", out)
	}
}

// matchSession returns a session over a fresh cluster holding the fixture
// TestPreparedValueResultsMatchText runs every case against: an edge
// table g, Randomised Contraction's label tables l and rr, and an empty
// two-column sink.
func matchSession(t *testing.T) *Session {
	t.Helper()
	s := newSession(t)
	loadEdges(t, s, "g", [][2]int64{{1, 5}, {2, 6}, {3, 7}})
	loadEdges(t, s, "sink", nil)
	for name, rows := range map[string][][2]int64{
		"l":  {{1, 10}, {2, 10}, {3, 20}, {4, 30}, {5, 40}},
		"rr": {{10, 100}, {20, 200}},
	} {
		if _, err := s.Cluster().CreateTable(name, engine.Schema{"v", "rep"}, 0); err != nil {
			t.Fatal(err)
		}
		erows := make([]engine.Row, len(rows))
		for i, r := range rows {
			erows[i] = engine.Row{engine.I(r[0]), engine.I(r[1])}
		}
		if err := s.Cluster().InsertRows(name, erows); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// canonRows renders a result as a sorted multiset of row strings, NULLs
// spelled out, so results compare independent of segment order.
func canonRows(rows []engine.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, d := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			if d.Null {
				b.WriteString("null")
			} else {
				fmt.Fprint(&b, d.Int)
			}
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// TestPreparedValueResultsMatchText checks prepared execution with bound
// arguments is indistinguishable from the equivalent literal text, for
// every statement kind a parameter can appear in: each case runs once
// prepared and once as text, on two fresh clusters, and compares the
// reported row count, the result rows of a SELECT and the contents of the
// table the statement writes.
func TestPreparedValueResultsMatchText(t *testing.T) {
	// Randomised Contraction's relabel shape: a CTAS whose target and both
	// join inputs are table parameters, with value parameters inside the
	// COALESCE fallback of a LEFT OUTER JOIN. Labels 30 and 40 have no row
	// in rr, so they take the axplusb fallback.
	const relabel = `create table %s as
		select l.v as v, coalesce(rr.rep, axplusb(%s, l.rep, %s)) as rep
		from %s as l left outer join %s as rr on (l.rep = rr.v)
		distributed by (v)`
	cases := []struct {
		name, prep, text string
		args             []Arg
		query            bool   // compare Query results instead of Exec counts
		table            string // table whose contents must match afterwards
	}{
		{name: "select udf", query: true,
			prep: "SELECT v1 AS v1, axplusb($1, v2, $2) AS h FROM g", args: []Arg{Int(3), Int(4)},
			text: "SELECT v1 AS v1, axplusb(3, v2, 4) AS h FROM g"},
		{name: "select udf rebound", query: true,
			prep: "SELECT v1 AS v1, axplusb($1, v2, $2) AS h FROM g", args: []Arg{Int(11), Int(13)},
			text: "SELECT v1 AS v1, axplusb(11, v2, 13) AS h FROM g"},
		{name: "ctas relabel", table: "relabel",
			prep: fmt.Sprintf(relabel, "$1", "$4", "$5", "$2", "$3"),
			args: []Arg{Table("relabel"), Table("l"), Table("rr"), Int(3), Int(4)},
			text: fmt.Sprintf(relabel, "relabel", "3", "4", "l", "rr")},
		{name: "from-less select", query: true,
			prep: "SELECT axplusb($1, $2, $3) AS r, $4 AS n", args: []Arg{Int(3), Int(5), Int(4), Null()},
			text: "SELECT axplusb(3, 5, 4) AS r, null AS n"},
		{name: "from-less union all", query: true,
			prep: "SELECT v1 AS x, v2 AS y FROM g WHERE v1 != $1 UNION ALL SELECT $1 AS x, axplusb($1, $2, 0) AS y",
			args: []Arg{Int(2), Int(9)},
			text: "SELECT v1 AS x, v2 AS y FROM g WHERE v1 != 2 UNION ALL SELECT 2 AS x, axplusb(2, 9, 0) AS y"},
		{name: "from-less ctas", table: "c",
			prep: "CREATE TABLE $1 AS SELECT $2 AS a, $3 AS b", args: []Arg{Table("c"), Int(-7), Null()},
			text: "CREATE TABLE c AS SELECT -7 AS a, null AS b"},
		{name: "insert values null", table: "sink",
			prep: "INSERT INTO $1 VALUES ($2, $3), ($4, null)", args: []Arg{Table("sink"), Int(1), Null(), Int(-4)},
			text: "INSERT INTO sink VALUES (1, null), (-4, null)"},
		{name: "insert select", table: "sink",
			prep: "INSERT INTO $1 SELECT x.v1, axplusb($3, x.v2, 0) FROM $2 AS x WHERE x.v1 != $3",
			args: []Arg{Table("sink"), Table("g"), Int(2)},
			text: "INSERT INTO sink SELECT x.v1, axplusb(2, x.v2, 0) FROM g AS x WHERE x.v1 != 2"},
		{name: "delete where", table: "g",
			prep: "DELETE FROM $1 WHERE v1 = $2 OR v2 = $3", args: []Arg{Table("g"), Int(1), Int(7)},
			text: "DELETE FROM g WHERE v1 = 1 OR v2 = 7"},
		{name: "explain",
			prep: "EXPLAIN SELECT v1 FROM g WHERE v1 = $1", args: []Arg{Int(2)},
			text: "EXPLAIN SELECT v1 FROM g WHERE v1 = 2"},
		{name: "explain analyze",
			prep: "EXPLAIN ANALYZE SELECT v1 FROM g WHERE v1 > $1", args: []Arg{Int(1)},
			text: "EXPLAIN ANALYZE SELECT v1 FROM g WHERE v1 > 1"},
		{name: "ddl ctas script", table: "s2",
			prep: "CREATE TABLE $1 (a, b); INSERT INTO $1 VALUES ($3, $4); " +
				"CREATE TABLE $2 AS SELECT t.a AS v, t.b AS w FROM $1 AS t UNION ALL SELECT v1, v2 FROM g",
			args: []Arg{Table("s1"), Table("s2"), Int(8), Null()},
			text: "CREATE TABLE s1 (a, b); INSERT INTO s1 VALUES (8, null); " +
				"CREATE TABLE s2 AS SELECT t.a AS v, t.b AS w FROM s1 AS t UNION ALL SELECT v1, v2 FROM g"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				n     int64
				names engine.Schema
				rows  []string
				table []string
			}
			run := func(prepared bool) outcome {
				s := matchSession(t)
				defer s.Cluster().Close()
				var o outcome
				var rows []engine.Row
				var err error
				switch {
				case prepared && tc.query:
					var p *Prepared
					if p, err = s.Prepare(tc.prep); err == nil {
						o.names, rows, err = p.Query(tc.args...)
					}
				case prepared:
					var p *Prepared
					if p, err = s.Prepare(tc.prep); err == nil {
						o.n, err = p.Exec(tc.args...)
					}
				case tc.query:
					o.names, rows, err = s.Query(tc.text)
				default:
					o.n, err = s.Exec(tc.text)
				}
				if err != nil {
					t.Fatalf("prepared=%v: %v", prepared, err)
				}
				o.rows = canonRows(rows)
				if tc.table != "" {
					all, err := s.Cluster().ReadAll(tc.table)
					if err != nil {
						t.Fatalf("prepared=%v: %v", prepared, err)
					}
					o.table = canonRows(all)
				}
				return o
			}
			prep, text := run(true), run(false)
			if fmt.Sprint(prep) != fmt.Sprint(text) {
				t.Fatalf("prepared and text differ:\nprepared %+v\ntext     %+v", prep, text)
			}
		})
	}
}

// TestConstSelectTemplateSharedAcrossNamespaces checks a FROM-less
// prepared SELECT is an ordinary plan template: it names no fixed table,
// so sessions in different temp namespaces share one cache entry, one
// miss then hits.
func TestConstSelectTemplateSharedAcrossNamespaces(t *testing.T) {
	c := newSession(t).Cluster()
	defer c.Close()
	len0 := c.PlanCacheLen()
	d := snapCounters(c)
	for _, s := range []*Session{NewIsolatedSession(c), NewIsolatedSession(c)} {
		p, err := s.Prepare("SELECT axplusb($1, $2, $3) AS r")
		if err != nil {
			t.Fatal(err)
		}
		for x := int64(0); x < 2; x++ {
			_, rows, err := p.Query(Int(1), Int(x), Int(4))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || rows[0][0].Int != int64(gf.AxB(1, uint64(x), 4)) {
				t.Fatalf("axplusb(1, %d, 4) = %v", x, rows)
			}
		}
	}
	d.expect(t, "two namespaces", 2, 3, 1)
	if got := c.PlanCacheLen(); got != len0+1 {
		t.Fatalf("plan cache holds %d entries, want %d", got, len0+1)
	}
}

// TestConstSelectTextFromIsolatedSession checks unparameterised FROM-less
// text sent from a namespaced session: the text lookup is keyed on the
// session namespace and misses, so every execution parses, and the parse
// then finds the shared "" template — one miss, then hits. Each distinct
// literal text is its own cache entry, like any other text statement.
func TestConstSelectTextFromIsolatedSession(t *testing.T) {
	c := newSession(t).Cluster()
	defer c.Close()
	s := NewIsolatedSession(c)
	len0 := c.PlanCacheLen()
	d := snapCounters(c)
	for i := 0; i < 2; i++ {
		_, rows, err := s.Query("select axplusb(1, 2, 4) as r")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].Int != int64(gf.AxB(1, 2, 4)) {
			t.Fatalf("axplusb(1, 2, 4) = %v", rows)
		}
	}
	d.expect(t, "same text twice", 2, 1, 1)
	if got := c.PlanCacheLen(); got != len0+1 {
		t.Fatalf("plan cache holds %d entries, want %d", got, len0+1)
	}
	if _, _, err := s.Query("select axplusb(1, 3, 4) as r"); err != nil {
		t.Fatal(err)
	}
	if got := c.PlanCacheLen(); got != len0+2 {
		t.Fatalf("plan cache holds %d entries after a second literal, want %d", got, len0+2)
	}
}

// TestTextQueryOnCachedCTAS checks Query refuses a statement that is not a
// SELECT before any counter moves, even when the text's CTAS template is
// cached, and leaves the template warm for Exec.
func TestTextQueryOnCachedCTAS(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}})
	const src = "create table x as select v1, v2 from e"
	if _, err := s.Exec(src); err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster().DropTable("x"); err != nil {
		t.Fatal(err)
	}
	d := snapCounters(s.Cluster())
	if _, _, err := s.Query(src); err == nil || !strings.Contains(err.Error(), "requires a") {
		t.Fatalf("Query of a CTAS: %v", err)
	}
	d.expect(t, "refused Query", 0, 0, 0)
	if _, err := s.Exec(src); err != nil {
		t.Fatal(err)
	}
	d.expect(t, "Exec after the refused Query", 0, 1, 0)
}

// TestCachedPlanStatsInvalidation pins validation-on-hit to the catalog,
// not to table statistics: no planning decision reads a row count, so a
// cached template keeps hitting — and keeps returning correct rows — while
// its input grows far past the size it was planned at. Interleaves inserts
// with cached-plan executions the way a streaming workload does.
func TestCachedPlanStatsInvalidation(t *testing.T) {
	s := newSession(t)
	defer s.Cluster().Close()
	loadEdges(t, s, "e", [][2]int64{{1, 2}, {2, 3}, {3, 4}})
	loadEdges(t, s, "f", [][2]int64{{2, 20}, {3, 30}})

	p, err := s.Prepare("SELECT count(*) AS n FROM e, f WHERE e.v2 = f.v1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(want int64) {
		t.Helper()
		_, rows, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].Int != want {
			t.Fatalf("join count: %v, want %d", rows, want)
		}
	}

	d := snapCounters(s.Cluster())
	run(2)
	d.expect(t, "first execute", 0, 0, 1)

	// Small growth: e triples, and the template stays hot.
	if _, err := s.Exec("INSERT INTO e VALUES (4,5),(5,6),(6,7),(7,8),(8,9),(9,10)"); err != nil {
		t.Fatal(err)
	}
	run(2)
	d.expect(t, "after small growth", 1, 1, 0) // the 1 parse is the INSERT

	// Large growth: push e from 9 rows to over 1100 with one bulk INSERT,
	// far past 4x, two of them joining f. The template still hits, sees
	// the new rows, and nothing is evicted.
	var b strings.Builder
	b.WriteString("INSERT INTO e VALUES (10,2),(11,3)")
	for i := 0; i < 1100; i++ {
		fmt.Fprintf(&b, ",(%d,%d)", 1000+i, 2000+i)
	}
	if _, err := s.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	inval0 := s.Cluster().Stats().PlanCacheInvalidations
	run(4)
	d.expect(t, "after bulk growth", 1, 1, 0) // the 1 parse is the INSERT
	if got := s.Cluster().Stats().PlanCacheInvalidations; got != inval0 {
		t.Fatalf("growth evicted the template: invalidations %d -> %d", inval0, got)
	}
	run(4)
	d.expect(t, "steady state", 0, 1, 0)
}
