package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dbcc/internal/engine"
)

// ccCall records the arguments of the last RunConnectedComponents call.
type ccCall struct {
	n          int
	table, alg string
	seed       uint64
	ctx        context.Context
}

// stubCC installs a RunConnectedComponents that records its call and
// answers (2, 3, 5), restoring the previous one when the test ends.
func stubCC(t *testing.T) *ccCall {
	t.Helper()
	old := RunConnectedComponents
	call := &ccCall{}
	RunConnectedComponents = func(ctx context.Context, _ *engine.Cluster, table, alg string, seed uint64) (int64, int64, int64, error) {
		call.n++
		call.table, call.alg, call.seed, call.ctx = table, alg, seed, ctx
		return 2, 3, 5, nil
	}
	t.Cleanup(func() { RunConnectedComponents = old })
	return call
}

func TestParseConnectedComponents(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // table, $N of the table, using, seed
	}{
		{"CONNECTED COMPONENTS OF g", "g 0 rc <nil>"},
		{"connected components of G using LD seed 7", "g 0 ld &{7}"},
		{"connected components of $1 seed $2", " 1 rc &{2}"},
		{"connected components of g seed -9223372036854775808", "g 0 rc &{-9223372036854775808}"},
	} {
		st, err := ParseOne(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		cc, ok := st.(*ConnectedComponents)
		if !ok {
			t.Fatalf("%q parsed to %T", tc.src, st)
		}
		if got := fmt.Sprintf("%s %d %s %v", cc.Table, cc.TableParam, cc.Using, cc.Seed); got != tc.want {
			t.Fatalf("%q parsed to %q, want %q", tc.src, got, tc.want)
		}
	}
	for _, src := range []string{
		"connected components g",
		"connected components of",
		"connected components of g using",
		"connected components of g seed",
		"connected components of g seed 18446744073709551616",
		"connected components of g using rc seed 1 extra",
	} {
		var pe *ParseError
		if _, err := Parse(src); !errors.As(err, &pe) {
			t.Errorf("%q: err = %v, want a *ParseError", src, err)
		}
	}
}

// TestConnectedComponentsStatement runs the statement as text and
// prepared: one row from the driver hook, called with the resolved table,
// the USING name, the seed and the session's context, and no engine
// statement or plan-cache lookup of its own.
func TestConnectedComponentsStatement(t *testing.T) {
	call := stubCC(t)
	c := engine.NewCluster(engine.Options{Segments: 2})
	defer c.Close()
	if _, err := c.CreateTable("e", engine.Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "session")
	s := NewSession(c).WithContext(ctx)

	before := c.Stats()
	for i := 0; i < 2; i++ {
		schema, rows, err := s.Query("CONNECTED COMPONENTS OF e")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(schema, ",") != "components,rounds,vertices" || len(rows) != 1 ||
			rows[0][0] != engine.I(2) || rows[0][1] != engine.I(3) || rows[0][2] != engine.I(5) {
			t.Fatalf("Query = %v %v, want one row (2, 3, 5)", schema, rows)
		}
	}
	if call.table != "e" || call.alg != "rc" || call.seed != 0 || call.ctx.Value(ctxKey{}) != "session" {
		t.Fatalf("hook called with %q %q %d under %v", call.table, call.alg, call.seed, call.ctx)
	}
	after := c.Stats()
	if after.Queries != before.Queries || after.PlanCacheHits != before.PlanCacheHits ||
		after.PlanCacheMisses != before.PlanCacheMisses || c.PlanCacheLen() != 0 {
		t.Fatalf("the statement moved queries %d→%d, hits %d→%d, misses %d→%d or cached a plan (%d)",
			before.Queries, after.Queries, before.PlanCacheHits, after.PlanCacheHits,
			before.PlanCacheMisses, after.PlanCacheMisses, c.PlanCacheLen())
	}

	p, err := s.Prepare("connected components of $1 using hm seed $2")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 2 || !p.ParamIsTable(1) || p.ParamIsTable(2) || !p.IsQuery() {
		t.Fatalf("prepared: %d params, table %v/%v, query %v", p.NumParams(), p.ParamIsTable(1), p.ParamIsTable(2), p.IsQuery())
	}
	if _, rows, err := p.Query(Table("e"), Int(-1)); err != nil || len(rows) != 1 {
		t.Fatalf("prepared Query = %v, %v", rows, err)
	}
	if call.table != "e" || call.alg != "hm" || call.seed != 1<<64-1 {
		t.Fatalf("hook called with %q %q %d", call.table, call.alg, call.seed)
	}
	if n, err := p.Exec(Table("e"), Int(9)); err != nil || n != 1 || call.seed != 9 {
		t.Fatalf("prepared Exec = %d, %v (seed %d)", n, err, call.seed)
	}
	if _, _, err := p.Query(Table("e"), Null()); err == nil {
		t.Fatal("a NULL seed ran")
	}
	if _, _, err := s.Query("connected components of e seed v1"); err == nil {
		t.Fatal("a column seed ran")
	}
	calls := call.n
	if _, _, err := s.Query("connected components of missing"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing table: %v", err)
	}
	if call.n != calls {
		t.Fatal("the hook ran for a missing table")
	}
}

// TestConnectedComponentsRespectsTenantRestriction checks the statement
// resolves its table through the session: a restricted session cannot
// name another tenant's physical table, by text or by parameter, and its
// own tables reach the driver under their physical names.
func TestConnectedComponentsRespectsTenantRestriction(t *testing.T) {
	call := stubCC(t)
	c := engine.NewCluster(engine.Options{Segments: 2})
	defer c.Close()
	if _, err := c.CreateTable("tn_a_edges", engine.Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	b := SessionWithNamespace(c, "tn_b_").RestrictPrefix("tn_")
	if _, _, err := b.Query("connected components of tn_a_edges"); err == nil {
		t.Fatal("a restricted session ran CC on another tenant's table")
	}
	p, err := b.Prepare("connected components of $1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Query(Table("tn_a_edges")); err == nil {
		t.Fatal("a restricted session ran CC on another tenant's table through $1")
	}
	if call.n != 0 {
		t.Fatalf("the hook ran %d times", call.n)
	}
	if _, err := b.Exec("create table edges (v1, v2)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Query("connected components of edges"); err != nil || call.table != "tn_b_edges" {
		t.Fatalf("own table: %v, hook saw %q", err, call.table)
	}
}
