package engine

import "sync"

// planCache is the engine's bounded LRU of compiled statement plans, keyed
// on (namespace, normalized statement text). The cache stores opaque values
// (the SQL layer's plan templates) plus the set of physical table names
// each plan reads, so catalog DDL — CREATE, DROP, RENAME — can eagerly
// evict every plan that referenced the changed table. Entries whose
// dependency set is empty (fully parameterised statements, whose scans are
// substituted at execute time) are never evicted by DDL, only by LRU
// pressure or an explicit flush.
//
// Locking: the cache has its own mutex, a leaf like statsMu. Catalog
// mutations call invalidate after releasing c.mu; nothing acquires c.mu
// while holding the cache lock.
type planCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*planCacheEntry
	// Most-recently-used list: head is hottest, tail is next to evict.
	head, tail *planCacheEntry

	hits          int64
	misses        int64
	invalidations int64
	parses        int64
}

// planCacheEntry is one cached plan with its intrusive LRU links.
type planCacheEntry struct {
	key        string
	val        any
	deps       map[string]struct{} // physical table names the plan reads
	prev, next *planCacheEntry
}

// planCacheSize bounds the cache in entries.
const planCacheSize = 256

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, m: make(map[string]*planCacheEntry)}
}

// cacheKey joins the namespace and normalized statement text. Namespaces
// cannot contain NUL, so the join is unambiguous.
func cacheKey(ns, norm string) string { return ns + "\x00" + norm }

// get returns the cached value without touching the hit/miss counters: the
// caller validates the plan against the current catalog first and then
// reports the outcome via noteHit/noteMiss, so a stale plan that fails
// validation is counted as a miss, not a hit.
func (pc *planCache) get(ns, norm string) (any, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.m[cacheKey(ns, norm)]
	if !ok {
		return nil, false
	}
	pc.moveToFront(e)
	return e.val, true
}

// put inserts or replaces a cached plan, evicting from the LRU tail past
// capacity.
func (pc *planCache) put(ns, norm string, val any, deps []string) {
	key := cacheKey(ns, norm)
	depSet := make(map[string]struct{}, len(deps))
	for _, d := range deps {
		depSet[d] = struct{}{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.m[key]; ok {
		e.val = val
		e.deps = depSet
		pc.moveToFront(e)
		return
	}
	e := &planCacheEntry{key: key, val: val, deps: depSet}
	pc.m[key] = e
	pc.pushFront(e)
	for len(pc.m) > pc.cap {
		pc.evict(pc.tail)
	}
}

// remove drops one entry — a plan that failed validation against the
// current catalog — and counts the invalidation, so the observability
// surface shows validation evictions alongside DDL ones.
func (pc *planCache) remove(ns, norm string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.m[cacheKey(ns, norm)]; ok {
		pc.evict(e)
		pc.invalidations++
	}
}

// invalidate evicts every entry depending on any of the named physical
// tables, counting the evictions.
func (pc *planCache) invalidate(names ...string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.m) == 0 {
		return
	}
	for e := pc.head; e != nil; {
		next := e.next
		for _, n := range names {
			if _, dep := e.deps[n]; dep {
				pc.evict(e)
				pc.invalidations++
				break
			}
		}
		e = next
	}
}

// flush drops every entry (UDF re-registration changes plan semantics
// wholesale). Counters are kept.
func (pc *planCache) flush() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.m = make(map[string]*planCacheEntry)
	pc.head, pc.tail = nil, nil
}

// len reports the number of cached plans.
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.m)
}

func (pc *planCache) noteHit()   { pc.mu.Lock(); pc.hits++; pc.mu.Unlock() }
func (pc *planCache) noteMiss()  { pc.mu.Lock(); pc.misses++; pc.mu.Unlock() }
func (pc *planCache) noteParse() { pc.mu.Lock(); pc.parses++; pc.mu.Unlock() }

// counters returns the cumulative counter values.
func (pc *planCache) counters() (parses, hits, misses, invalidations int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.parses, pc.hits, pc.misses, pc.invalidations
}

// resetCounters zeroes the counters, keeping the cached entries (clearing
// statistics must not throw warm plans away).
func (pc *planCache) resetCounters() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.parses, pc.hits, pc.misses, pc.invalidations = 0, 0, 0, 0
}

// --- intrusive LRU list (pc.mu held) ---

func (pc *planCache) pushFront(e *planCacheEntry) {
	e.prev = nil
	e.next = pc.head
	if pc.head != nil {
		pc.head.prev = e
	}
	pc.head = e
	if pc.tail == nil {
		pc.tail = e
	}
}

func (pc *planCache) unlink(e *planCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (pc *planCache) moveToFront(e *planCacheEntry) {
	if pc.head == e {
		return
	}
	pc.unlink(e)
	pc.pushFront(e)
}

func (pc *planCache) evict(e *planCacheEntry) {
	pc.unlink(e)
	delete(pc.m, e.key)
}

// --- Cluster-facing API ---

// NoteParse counts one SQL parse. The SQL layer calls it from every
// Session-level entry point that actually lexes and parses statement text,
// so the counter exposes exactly the parse work prepared statements and
// the plan cache avoid.
func (c *Cluster) NoteParse() { c.plans.noteParse() }

// PlanCacheGet looks up a cached plan for (namespace, normalized text). It
// does not count a hit: the caller must validate the plan against the
// current catalog and then call NotePlanCacheHit or NotePlanCacheMiss, so
// hit-rate figures reflect plans that were actually reused.
func (c *Cluster) PlanCacheGet(ns, norm string) (any, bool) { return c.plans.get(ns, norm) }

// PlanCachePut caches a plan under (namespace, normalized text). deps are
// the physical names of the tables the plan reads; DDL against any of them
// evicts the entry.
func (c *Cluster) PlanCachePut(ns, norm string, val any, deps []string) {
	c.plans.put(ns, norm, val, deps)
}

// PlanCacheRemove drops one cached plan (one that failed validation).
func (c *Cluster) PlanCacheRemove(ns, norm string) { c.plans.remove(ns, norm) }

// PlanCacheFlush drops every cached plan, keeping the counters.
func (c *Cluster) PlanCacheFlush() { c.plans.flush() }

// PlanCacheLen reports how many plans are cached.
func (c *Cluster) PlanCacheLen() int { return c.plans.len() }

// NotePlanCacheHit counts one validated cache hit.
func (c *Cluster) NotePlanCacheHit() { c.plans.noteHit() }

// NotePlanCacheMiss counts one cache miss (including validation failures).
func (c *Cluster) NotePlanCacheMiss() { c.plans.noteMiss() }
