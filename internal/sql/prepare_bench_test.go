package sql

import (
	"testing"

	"dbcc/internal/engine"
)

// benchStmtPrepared is shaped like one CC round-loop statement: a
// self-join with a grouped aggregate, the kind of text the drivers used to
// re-parse and re-plan every round. The benchmark pairs below pin how much
// of that cost prepare-once/execute-many actually removes.
const benchStmtPrepared = "SELECT e.v1 AS v1, min(o.v2) AS rep FROM $1 AS e, $2 AS o WHERE e.v1 = o.v1 AND e.v2 != $3 GROUP BY e.v1"

// benchStmtText is benchStmtPrepared with its arguments written inline.
const benchStmtText = "SELECT e.v1 AS v1, min(o.v2) AS rep FROM be AS e, be AS o WHERE e.v1 = o.v1 AND e.v2 != -1 GROUP BY e.v1"

func benchCluster(b *testing.B) (*engine.Cluster, *Session) {
	b.Helper()
	c := engine.NewCluster(engine.Options{Segments: 1})
	if _, err := c.CreateTable("be", engine.Schema{"v1", "v2"}, 0); err != nil {
		b.Fatal(err)
	}
	rows := make([]engine.Row, 16)
	for i := range rows {
		rows[i] = engine.Row{engine.I(int64(i % 4)), engine.I(int64(i))}
	}
	if err := c.InsertRows("be", rows); err != nil {
		b.Fatal(err)
	}
	return c, NewSession(c)
}

// BenchmarkPreparedRoundLoop compares the two ways a driver can execute
// the same round statement many times: through a prepared handle hitting
// the plan cache (instantiate a cached template, run), and by parsing,
// planning and running the literal text every time (the pre-cache cost
// every round used to pay). The committed microbench baseline gates
// prepared at a fraction of parse-plan-execute, so a regression that
// sneaks parsing or planning back into the prepared hot path fails CI.
func BenchmarkPreparedRoundLoop(b *testing.B) {
	b.Run("prepared", func(b *testing.B) {
		c, s := benchCluster(b)
		defer c.Close()
		p, err := s.Prepare(benchStmtPrepared)
		if err != nil {
			b.Fatal(err)
		}
		args := []Arg{Table("be"), Table("be"), Int(-1)}
		if _, _, err := p.Query(args...); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Query(args...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parseplan", func(b *testing.B) {
		c, _ := benchCluster(b)
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := parsePlan(c, benchStmtText)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := c.Query(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// parsePlan is the uncached path: parse the text, then plan it.
func parsePlan(c *engine.Cluster, src string) (engine.Plan, error) {
	st, err := ParseOne(src)
	if err != nil {
		return nil, err
	}
	plan, _, err := PlanSelect(c, st.(*SelectQuery).Select)
	return plan, err
}

// BenchmarkPreparedPlanning isolates the per-execution planning work the
// two paths pay before the engine runs anything: the prepared path binds
// its arguments, validates the cached template against the catalog and
// instantiates a concrete plan; the text path lexes, parses and plans the
// statement from scratch. This is the overhead the plan cache exists to
// remove, and the committed baseline pins prepared at a small fraction of
// parse+plan (the end-to-end gap above is diluted by the engine's fixed
// per-query execution cost, which both paths share).
func BenchmarkPreparedPlanning(b *testing.B) {
	b.Run("prepared", func(b *testing.B) {
		c, s := benchCluster(b)
		defer c.Close()
		p, err := s.Prepare(benchStmtPrepared)
		if err != nil {
			b.Fatal(err)
		}
		args := []Arg{Table("be"), Table("be"), Int(-1)}
		if _, _, err := p.Query(args...); err != nil { // warm the template
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bound, err := p.Bind(args...)
			if err != nil {
				b.Fatal(err)
			}
			tmpl, err := s.templateFor(bound.p, 0, bound.args)
			if err != nil {
				b.Fatal(err)
			}
			s.instantiate(tmpl, bound.args)
		}
	})
	b.Run("parseplan", func(b *testing.B) {
		c, _ := benchCluster(b)
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := parsePlan(c, benchStmtText); err != nil {
				b.Fatal(err)
			}
		}
	})
}
