package sql

import (
	"strings"
	"testing"

	"dbcc/internal/engine"
	"dbcc/internal/gf"
)

// newSession returns a session over a fresh cluster with the paper's UDF
// registered.
func newSession(t *testing.T) *Session {
	t.Helper()
	c := engine.NewCluster(engine.Options{Segments: 4})
	c.RegisterUDF("axplusb", func(args []engine.Datum) engine.Datum {
		if args[0].Null || args[1].Null || args[2].Null {
			return engine.NullDatum
		}
		return engine.I(int64(gf.AxB(uint64(args[0].Int), uint64(args[1].Int), uint64(args[2].Int))))
	})
	return NewSession(c)
}

// loadEdges creates a two-column table from int64 pairs.
func loadEdges(t *testing.T, s *Session, name string, edges [][2]int64) {
	t.Helper()
	if _, err := s.Cluster().CreateTable(name, engine.Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	rows := make([]engine.Row, len(edges))
	for i, e := range edges {
		rows[i] = engine.Row{engine.I(e[0]), engine.I(e[1])}
	}
	if err := s.Cluster().InsertRows(name, rows); err != nil {
		t.Fatal(err)
	}
}

func rowsToPairs(rows []engine.Row) map[[2]int64]int {
	m := make(map[[2]int64]int)
	for _, r := range rows {
		m[[2]int64{r[0].Int, r[1].Int}]++
	}
	return m
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"create table",
		"select from t",
		"select 1 2 3",
		"drop x",
		"alter table a rename b",
		"select ~ from t",
		"insert into t values 1",
		"create table t as select 1 distributed by v",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := Parse(`
		-- a comment
		create table a as select 1 x;
		drop table a;
		alter table b rename to c;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements, want 3", len(stmts))
	}
}

func TestConstSelect(t *testing.T) {
	s := newSession(t)
	names, rows, err := s.Query("select 1 as a, -5 b, null as c")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names %v", names)
	}
	if rows[0][0].Int != 1 || rows[0][1].Int != -5 || !rows[0][2].Null {
		t.Fatalf("row %v", rows[0])
	}
	// A FROM-less block filters its one row like any other.
	if _, rows, err := s.Query("select 1 as a where 1 = 0"); err != nil || len(rows) != 0 {
		t.Fatalf("FROM-less WHERE false: %v, %v", rows, err)
	}
}

func TestUnionAllSetup(t *testing.T) {
	// The paper's setup query: symmetrise the edge table.
	s := newSession(t)
	loadEdges(t, s, "g", [][2]int64{{1, 2}, {3, 4}})
	n, err := s.Exec(`
		create table ccgraph as
		select v1, v2 from g
		union all
		select v2, v1 from g
		distributed by (v1)`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("rowcount %d, want 4", n)
	}
	_, rows, err := s.Query("select v1, v2 from ccgraph")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToPairs(rows)
	for _, want := range [][2]int64{{1, 2}, {2, 1}, {3, 4}, {4, 3}} {
		if got[want] != 1 {
			t.Fatalf("missing row %v in %v", want, got)
		}
	}
	// The created table must be hash-distributed by v1.
	tab, _ := s.Cluster().Table("ccgraph")
	if tab.DistKey != 0 {
		t.Fatalf("distkey %d, want 0", tab.DistKey)
	}
}

func TestGroupByWithAggExpression(t *testing.T) {
	// The paper's representative query shape:
	// least(axplusb(A,v1,B), min(axplusb(A,v2,B))) with group by v1.
	// Use A=1, B=0 so axplusb is the identity and results are checkable.
	s := newSession(t)
	loadEdges(t, s, "ccgraph", [][2]int64{{1, 5}, {1, 3}, {7, 2}})
	_, rows, err := s.Query(`
		select v1 v, least(axplusb(1, v1, 0), min(axplusb(1, v2, 0))) rep
		from ccgraph
		group by v1`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToPairs(rows)
	want := map[[2]int64]int{{1, 1}: 1, {7, 2}: 1}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for k := range want {
		if got[k] != 1 {
			t.Fatalf("missing %v in %v", k, got)
		}
	}
}

func TestThreeWayJoinWithDistinct(t *testing.T) {
	// Fig. 3's contraction query: a three-way comma join resolved through
	// WHERE equi-join conjuncts plus a residual filter.
	s := newSession(t)
	loadEdges(t, s, "e", [][2]int64{{1, 2}, {2, 3}, {3, 1}, {4, 5}})
	loadEdges(t, s, "r", [][2]int64{{1, 1}, {2, 1}, {3, 3}, {4, 4}, {5, 4}})
	// r maps: 1→1, 2→1, 3→3, 4→4, 5→4 (schema v1=v, v2=rep).
	_, rows, err := s.Query(`
		select distinct v.v2 as v, w.v2 as w
		from e, r as v, r as w
		where e.v1 = v.v1 and e.v2 = w.v1 and v.v2 != w.v2`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToPairs(rows)
	// Edges map to: (1,2)->(1,1) loop dropped; (2,3)->(1,3); (3,1)->(3,1); (4,5)->(4,4) dropped.
	want := map[[2]int64]int{{1, 3}: 1, {3, 1}: 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != 1 {
			t.Fatalf("missing %v", k)
		}
	}
}

func TestLeftOuterJoinCoalesce(t *testing.T) {
	// Fig. 3's composition query shape.
	s := newSession(t)
	loadEdges(t, s, "l", [][2]int64{{1, 10}, {2, 20}})
	loadEdges(t, s, "r", [][2]int64{{10, 100}})
	_, rows, err := s.Query(`
		select l.v1 as v, coalesce(r.v2, axplusb(1, l.v2, 0)) as rep
		from l left outer join r on (l.v2 = r.v1)`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToPairs(rows)
	want := map[[2]int64]int{{1, 100}: 1, {2, 20}: 1}
	for k := range want {
		if got[k] != 1 {
			t.Fatalf("missing %v in %v", k, got)
		}
	}
}

func TestInsertAndCount(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "t", nil)
	n, err := s.Exec("insert into t values (1, 2), (3, null)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("insert count %d", n)
	}
	_, rows, err := s.Query("select count(*) as n from t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 2 {
		t.Fatalf("count rows %v", rows)
	}
	_, rows, err = s.Query("select count(v2) as n, min(v1) as m, max(v1) as x from t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 1 || rows[0][1].Int != 1 || rows[0][2].Int != 3 {
		t.Fatalf("aggregates %v", rows[0])
	}
}

func TestDropAlter(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", nil)
	loadEdges(t, s, "b", nil)
	if _, err := s.Exec("drop table a, b"); err != nil {
		t.Fatal(err)
	}
	loadEdges(t, s, "x", [][2]int64{{1, 2}})
	if _, err := s.Exec("alter table x rename to y"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cluster().Table("y"); !ok {
		t.Fatal("rename lost table")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", nil)
	loadEdges(t, s, "b", nil)
	_, _, err := s.Query("select v1 from a, b where a.v1 = b.v1")
	if err == nil {
		t.Fatal("ambiguous column reference accepted")
	}
}

func TestMissingGroupByColumn(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", [][2]int64{{1, 2}})
	_, _, err := s.Query("select v1, v2 from a group by v1")
	if err == nil {
		t.Fatal("non-grouped column accepted")
	}
}

func TestCartesianRejected(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", nil)
	loadEdges(t, s, "b", nil)
	_, _, err := s.Query("select a.v1 from a, b")
	if err == nil {
		t.Fatal("cartesian product accepted")
	}
	// An unaliased table parameter is named by its $N in the error.
	p, err := s.Prepare("select x.v1 from $1 as x, $2 where x.v1 > 0")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = p.Query(Table("a"), Table("b"))
	if err == nil || !strings.Contains(err.Error(), `table "$2"`) {
		t.Fatalf("cartesian product over a parameter: err = %v, want it to name $2", err)
	}
}

func TestWhereFilter(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	_, rows, err := s.Query("select v1, v2 from a where v2 >= 20 and v1 != 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 2 {
		t.Fatalf("filter result %v", rows)
	}
}

func TestDistributedByMissingColumn(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", nil)
	_, err := s.Exec("create table b as select v1 from a distributed by (nope)")
	if err == nil {
		t.Fatal("bad DISTRIBUTED BY accepted")
	}
}

func TestCreateTablePlainAndInsert(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("create table pts (x, y) distributed by (x)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("insert into pts values (1, 2), (3, 4)"); err != nil {
		t.Fatal(err)
	}
	_, rows, err := s.Query("select count(*) as n from pts")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 2 {
		t.Fatalf("count %v", rows[0])
	}
	tab, _ := s.Cluster().Table("pts")
	if tab.DistKey != 0 {
		t.Fatalf("distkey %d", tab.DistKey)
	}
	if _, err := s.Exec("create table bad (x) distributed by (nope)"); err == nil {
		t.Fatal("bad DISTRIBUTED BY accepted")
	}
}

func TestOrderByLimit(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "t", [][2]int64{{3, 30}, {1, 10}, {2, 20}, {5, 50}})
	_, rows, err := s.Query("select v1, v2 from t order by v1 desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int != 5 || rows[1][0].Int != 3 {
		t.Fatalf("order by desc limit: %v", rows)
	}
	_, rows, err = s.Query("select v1, v2 from t order by v2 asc")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].Int != 10 || rows[3][1].Int != 50 {
		t.Fatalf("order by asc: %v", rows)
	}
	if _, _, err := s.Query("select v1 from t order by missing"); err == nil {
		t.Fatal("ORDER BY unknown column accepted")
	}
}

func TestOrderByAppliesToWholeUnion(t *testing.T) {
	s := newSession(t)
	_, rows, err := s.Query("select 2 as x union all select 1 as x order by x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int != 1 || rows[1][0].Int != 2 {
		t.Fatalf("union order: %v", rows)
	}
}

func TestSumAggregate(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "t", [][2]int64{{1, 10}, {1, 5}, {2, 7}})
	_, rows, err := s.Query("select v1, sum(v2) as total from t group by v1 order by v1")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].Int != 15 || rows[1][1].Int != 7 {
		t.Fatalf("sum: %v", rows)
	}
}

func TestExplain(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "t", [][2]int64{{1, 2}})
	out, err := s.Explain("explain select v1 v, min(v2) m from t group by v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GroupBy", "Scan(t)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output %q missing %q", out, want)
		}
	}
	if _, err := s.Explain("drop table t"); err == nil {
		t.Fatal("EXPLAIN of DDL accepted")
	}
	// Executing an EXPLAIN statement validates but does not run the query.
	before := s.Cluster().Stats().Queries
	if _, err := s.Exec("explain select v1 from t"); err != nil {
		t.Fatal(err)
	}
	if got := s.Cluster().Stats().Queries; got != before {
		t.Fatalf("EXPLAIN executed the query (%d -> %d)", before, got)
	}
}

func TestUDFNotRegistered(t *testing.T) {
	s := newSession(t)
	loadEdges(t, s, "a", [][2]int64{{1, 2}})
	if _, _, err := s.Query("select nosuchfn(v1) from a"); err == nil {
		t.Fatal("unknown function accepted")
	}
}
