package engine

import (
	"fmt"
	"testing"
)

// TestPlanCacheLRUBound fills the cache past its capacity and checks the
// coldest entries were evicted, newest retained.
func TestPlanCacheLRUBound(t *testing.T) {
	pc := newPlanCache(4)
	for i := 0; i < 8; i++ {
		pc.put("", fmt.Sprintf("select %d", i), i, nil)
	}
	if got := pc.len(); got != 4 {
		t.Fatalf("cache holds %d entries, capacity 4", got)
	}
	for i := 0; i < 4; i++ {
		if _, ok := pc.get("", fmt.Sprintf("select %d", i)); ok {
			t.Fatalf("cold entry %d survived past capacity", i)
		}
	}
	for i := 4; i < 8; i++ {
		if v, ok := pc.get("", fmt.Sprintf("select %d", i)); !ok || v.(int) != i {
			t.Fatalf("hot entry %d missing", i)
		}
	}
}

// TestPlanCacheLRUTouchOnGet checks that a get refreshes recency: the
// touched entry must outlive untouched ones under eviction pressure.
func TestPlanCacheLRUTouchOnGet(t *testing.T) {
	pc := newPlanCache(2)
	pc.put("", "a", 1, nil)
	pc.put("", "b", 2, nil)
	pc.get("", "a")         // a is now hotter than b
	pc.put("", "c", 3, nil) // evicts b
	if _, ok := pc.get("", "a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := pc.get("", "b"); ok {
		t.Fatal("least recently used entry survived")
	}
}

// TestPlanCacheDDLInvalidation checks dependency-keyed eviction: DDL on a
// referenced physical table evicts exactly the plans that read it, and
// fully parameterised entries (empty dependency set) are immune.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	c := NewCluster(Options{Segments: 2})
	defer c.Close()
	if _, err := c.CreateTable("t1", Schema{"a"}, 0); err != nil {
		t.Fatal(err)
	}
	c.PlanCachePut("", "select t1", 1, []string{"t1"})
	c.PlanCachePut("", "select other", 2, []string{"other"})
	c.PlanCachePut("", "select $1", 3, nil) // all-param: no deps

	if err := c.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.PlanCacheGet("", "select t1"); ok {
		t.Fatal("plan over dropped table survived")
	}
	if _, ok := c.PlanCacheGet("", "select other"); !ok {
		t.Fatal("unrelated plan evicted")
	}
	if _, ok := c.PlanCacheGet("", "select $1"); !ok {
		t.Fatal("parameterised plan evicted by DDL")
	}
	if st := c.Stats(); st.PlanCacheInvalidations == 0 {
		t.Fatal("invalidation not counted")
	}

	// CREATE of a same-named table also invalidates: a cached plan may
	// have resolved the name globally while the new table shadows it.
	c.PlanCachePut("", "select t2", 4, []string{"t2"})
	if _, err := c.CreateTable("t2", Schema{"a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.PlanCacheGet("", "select t2"); ok {
		t.Fatal("plan survived CREATE of its dependency")
	}

	// RENAME invalidates plans reading either name.
	if _, err := c.CreateTable("old", Schema{"a"}, 0); err != nil {
		t.Fatal(err)
	}
	c.PlanCachePut("", "select old", 5, []string{"old"})
	c.PlanCachePut("", "select new", 6, []string{"new"})
	if err := c.RenameTable("old", "new"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.PlanCacheGet("", "select old"); ok {
		t.Fatal("plan over renamed-away table survived")
	}
	if _, ok := c.PlanCacheGet("", "select new"); ok {
		t.Fatal("plan over renamed-to table survived")
	}
}

// TestPlanCacheCounters checks the hit/miss counters move only through
// the explicit Note calls, and that ResetStats clears the counters while
// keeping the cached plans warm.
func TestPlanCacheCounters(t *testing.T) {
	c := NewCluster(Options{Segments: 1})
	defer c.Close()
	c.PlanCachePut("ns_", "select x", 1, nil)
	c.PlanCacheGet("ns_", "select x") // get alone moves nothing
	if st := c.Stats(); st.Parses != 0 || st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 {
		t.Fatalf("counters moved without Note calls: %d/%d/%d", st.Parses, st.PlanCacheHits, st.PlanCacheMisses)
	}
	c.NoteParse()
	c.NotePlanCacheHit()
	c.NotePlanCacheHit()
	c.NotePlanCacheMiss()
	st := c.Stats()
	if st.Parses != 1 || st.PlanCacheHits != 2 || st.PlanCacheMisses != 1 {
		t.Fatalf("stats: parses=%d hits=%d misses=%d", st.Parses, st.PlanCacheHits, st.PlanCacheMisses)
	}

	c.ResetStats()
	st = c.Stats()
	if st.Parses != 0 || st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 || st.PlanCacheInvalidations != 0 {
		t.Fatalf("ResetStats left counters: %+v", st)
	}
	if _, ok := c.PlanCacheGet("ns_", "select x"); !ok {
		t.Fatal("ResetStats dropped cached plans; it must only clear counters")
	}
}

// TestPlanCacheFlush checks Flush empties the cache but keeps counters.
func TestPlanCacheFlush(t *testing.T) {
	c := NewCluster(Options{Segments: 1})
	defer c.Close()
	c.PlanCachePut("", "a", 1, nil)
	c.NotePlanCacheHit()
	c.PlanCacheFlush()
	if c.PlanCacheLen() != 0 {
		t.Fatal("flush left entries")
	}
	if st := c.Stats(); st.PlanCacheHits != 1 {
		t.Fatal("flush cleared counters")
	}
}

// TestPlanCacheRemove checks single-entry removal (the validation-failure
// path).
func TestPlanCacheRemove(t *testing.T) {
	c := NewCluster(Options{Segments: 1})
	defer c.Close()
	c.PlanCachePut("", "a", 1, nil)
	c.PlanCachePut("", "b", 2, nil)
	c.PlanCacheRemove("", "a")
	if _, ok := c.PlanCacheGet("", "a"); ok {
		t.Fatal("removed entry still present")
	}
	if _, ok := c.PlanCacheGet("", "b"); !ok {
		t.Fatal("unrelated entry removed")
	}
}

// TestPlanCacheNamespaceKeying checks two namespaces never share entries
// for the same normalized text.
func TestPlanCacheNamespaceKeying(t *testing.T) {
	c := NewCluster(Options{Segments: 1})
	defer c.Close()
	c.PlanCachePut("tn_a_", "select x", 1, nil)
	c.PlanCachePut("tn_b_", "select x", 2, nil)
	va, okA := c.PlanCacheGet("tn_a_", "select x")
	vb, okB := c.PlanCacheGet("tn_b_", "select x")
	if !okA || !okB || va.(int) != 1 || vb.(int) != 2 {
		t.Fatalf("namespace keying broken: %v/%v %v/%v", va, okA, vb, okB)
	}
}
