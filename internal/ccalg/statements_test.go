package ccalg_test

import (
	"fmt"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/ccalg/conformance"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

// hasScan reports whether an operator tree reads a stored table.
func hasScan(m *engine.OpMetrics) bool {
	if m == nil {
		return false
	}
	if m.Op == "Scan" {
		return true
	}
	for _, ch := range m.Children {
		if hasScan(ch) {
			return true
		}
	}
	return false
}

// TestDriversReadATableEveryStatement runs every registered driver, and
// RC under every randomisation method and variant, and checks the trace of
// the run: every statement that reached the engine scanned a table. A
// statement that reads no table — coordinator arithmetic issued as a
// FROM-less self-query — is not part of the algorithm's SQL and must not
// come back.
func TestDriversReadATableEveryStatement(t *testing.T) {
	type driver struct {
		name string
		run  ccalg.Func
		opts ccalg.Options
	}
	var drivers []driver
	for _, info := range conformance.Drivers() {
		drivers = append(drivers, driver{info.Name, info.Run, ccalg.Options{Seed: 7}})
	}
	for _, m := range []ccalg.Method{ccalg.FiniteFields, ccalg.GFPrime, ccalg.Encryption, ccalg.RandomReals} {
		for _, v := range []ccalg.Variant{ccalg.Fast, ccalg.Safe} {
			drivers = append(drivers, driver{fmt.Sprintf("rc/%s/%s", m, v), ccalg.RandomisedContraction,
				ccalg.Options{Seed: 7, RC: ccalg.RCOptions{Method: m, Variant: v}}})
		}
	}
	g := datagen.Bitcoin(100, 5)
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			c := engine.NewCluster(engine.Options{Segments: 4})
			defer c.Close()
			if err := graph.Load(c, "input", g); err != nil {
				t.Fatal(err)
			}
			c.ResetStats()
			if _, err := d.run(c, "input", d.opts); err != nil {
				t.Fatal(err)
			}
			recs := c.Trace()
			if q := c.Stats().Queries; int64(len(recs)) != q || recs[0].Seq != 0 {
				t.Fatalf("trace holds %d records from seq %d for %d statements; the check needs all of them",
					len(recs), recs[0].Seq, q)
			}
			for _, rec := range recs {
				if !hasScan(rec.Root) {
					t.Errorf("statement %d (%s %q) reads no table: %s", rec.Seq, rec.Kind, rec.Target, rec.Plan)
				}
			}
		})
	}
}

// TestCrackerAppendHitsPlanCache runs Cracker, whose rounds append their
// propagation-tree rows with a prepared INSERT … SELECT, and checks that
// every statement of the run goes through the plan cache and that each
// statement shape is planned once, on its first execution: every repeat,
// the tree append's included, is a cache hit.
func TestCrackerAppendHitsPlanCache(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 4})
	defer c.Close()
	if err := graph.Load(c, "input", datagen.Path(200)); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if _, err := ccalg.Cracker(c, "input", ccalg.Options{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PlanCacheHits+st.PlanCacheMisses != st.Queries {
		t.Errorf("%d statements, %d plan-cache hits and %d misses: %d statements bypassed the cache",
			st.Queries, st.PlanCacheHits, st.PlanCacheMisses, st.Queries-st.PlanCacheHits-st.PlanCacheMisses)
	}
	if st.PlanCacheMisses != st.Parses {
		t.Errorf("%d plan-cache misses for %d statement shapes; want each shape planned once",
			st.PlanCacheMisses, st.Parses)
	}
}
