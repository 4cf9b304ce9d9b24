// Component indexes: incremental connected-component maintenance for edge
// tables. A ComponentIndex is a union-find structure over a table's first
// two int64 columns that InsertRows feeds as rows arrive, so component
// labels stay current under a stream of inserts with amortised
// near-constant relabel work per edge — no recompute on the insert path.
// Deletes can split components, which union-find cannot express, so
// DeleteRows marks the index stale and triggers a rebuild: a full
// recompute through the cluster's pluggable rebuilder (the dbcc layer
// installs the deterministic-RC driver via SetComponentRebuilder) or,
// when none is installed, a local rescan.
//
// Subscribers observe the label stream: every structural change carries a
// monotonically increasing sequence number, merges identify the losing
// and winning roots, and a rebuild event tells the subscriber to refetch
// the full labelling. The index lives inside the engine (not on top of
// internal/unionfind) because the unionfind package depends on the graph
// loader, which depends on the engine.

package engine

import (
	"fmt"
	"sync"
)

// Index event kinds. The values are part of the wire protocol (the Notify
// frame carries them as a uint8), so they must not be renumbered.
const (
	// IndexEventMerge reports that the component rooted at From was merged
	// into the component rooted at To.
	IndexEventMerge uint8 = 0
	// IndexEventRebuild reports that the labelling was rebuilt from
	// scratch (after deletes); subscribers must refetch the snapshot, as
	// any label may have changed. From and To are zero.
	IndexEventRebuild uint8 = 1
)

// IndexEvent is one label-change notification from a ComponentIndex.
type IndexEvent struct {
	Seq  uint64 // monotonic per-index sequence number, gap-free per subscriber
	Kind uint8  // IndexEventMerge or IndexEventRebuild
	From int64  // merge: root of the absorbed component
	To   int64  // merge: root of the surviving component
}

// IndexSub is one subscription to a ComponentIndex's event stream.
type IndexSub struct {
	// C delivers events in sequence order. It is closed when the
	// subscription ends: after Close, after the index is dropped, or if
	// the subscriber falls so far behind that its buffer overflows (a
	// closed channel with undelivered sequence numbers means "resubscribe
	// and refetch").
	C <-chan IndexEvent
	// StartSeq is the index sequence number at subscription time; the
	// first delivered event has Seq == StartSeq+1.
	StartSeq uint64

	idx *ComponentIndex
	id  uint64
}

// Close ends the subscription and closes C. It is idempotent.
func (s *IndexSub) Close() { s.idx.unsubscribe(s.id) }

// ComponentIndex maintains the connected-component labelling of one edge
// table under streaming inserts. All methods are safe for concurrent use.
type ComponentIndex struct {
	c     *Cluster
	table string // physical table name (renamed along with the table)

	mu      sync.Mutex
	parent  map[int64]int64
	rank    map[int64]int8
	seq     uint64
	deletes int64 // delete statements since the last rebuild
	stale   bool  // deletes happened; labels may over-merge until rebuilt

	watchers map[uint64]chan IndexEvent
	nextSub  uint64

	// rebuildMu serializes rebuilds; while one is running, observed edges
	// are also queued on backlog so a rebuild snapshot racing with inserts
	// cannot lose their merges.
	rebuildMu  sync.Mutex
	rebuilding bool
	backlog    [][2]int64
}

// subBuffer is the per-subscriber event buffer; a subscriber that lags
// more than this many events behind is disconnected (closed channel).
const subBuffer = 4096

func newComponentIndex(c *Cluster, table string) *ComponentIndex {
	return &ComponentIndex{
		c:        c,
		table:    table,
		parent:   make(map[int64]int64),
		rank:     make(map[int64]int8),
		watchers: make(map[uint64]chan IndexEvent),
	}
}

// find returns the root of v with path compression, registering unseen
// vertices, and counts every touched label. Caller holds x.mu.
func (x *ComponentIndex) find(v int64, touched *int64) int64 {
	if _, ok := x.parent[v]; !ok {
		x.parent[v] = v
		*touched++
	}
	root := v
	for x.parent[root] != root {
		root = x.parent[root]
	}
	for x.parent[v] != root {
		x.parent[v], v = root, x.parent[v]
		*touched++
	}
	return root
}

// observe folds a batch of inserted rows into the labelling, emitting one
// merge event per actual union. Rows whose first two columns are not both
// non-NULL int64s are ignored (they carry no edge). Returns the labels
// touched and merges performed, for the cluster counters.
func (x *ComponentIndex) observe(rows []Row) (touched, merges int64) {
	x.mu.Lock()
	for _, r := range rows {
		if len(r) < 2 || r[0].Null || r[1].Null {
			continue
		}
		x.addEdge(r[0].Int, r[1].Int, &touched, &merges)
	}
	x.mu.Unlock()
	return touched, merges
}

// observeChunk is observe over a stored chunk, reading its first two
// columns directly.
func (x *ComponentIndex) observeChunk(ch *Chunk) (touched, merges int64) {
	vs, ws := ch.cols[0], ch.cols[1]
	vn, wn := ch.nulls[0], ch.nulls[1]
	x.mu.Lock()
	for r := 0; r < ch.length; r++ {
		if vn.get(r) || wn.get(r) {
			continue
		}
		x.addEdge(vs[r], ws[r], &touched, &merges)
	}
	x.mu.Unlock()
	return touched, merges
}

// addEdge folds edge (v, w) into the labelling, broadcasting a merge event
// if it joins two components. Caller holds x.mu.
func (x *ComponentIndex) addEdge(v, w int64, touched, merges *int64) {
	if x.rebuilding {
		x.backlog = append(x.backlog, [2]int64{v, w})
	}
	rv, rw := x.find(v, touched), x.find(w, touched)
	if rv == rw {
		return
	}
	// Union by rank; the higher-ranked root survives.
	if x.rank[rv] < x.rank[rw] {
		rv, rw = rw, rv
	} else if x.rank[rv] == x.rank[rw] {
		x.rank[rv]++
	}
	x.parent[rw] = rv
	*touched++
	*merges++
	x.seq++
	x.broadcast(IndexEvent{Seq: x.seq, Kind: IndexEventMerge, From: rw, To: rv})
}

// broadcast fans an event out to every subscriber, disconnecting any
// whose buffer is full. Caller holds x.mu.
func (x *ComponentIndex) broadcast(ev IndexEvent) {
	for id, ch := range x.watchers {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(x.watchers, id)
		}
	}
}

// Labels returns a snapshot of the labelling: every registered vertex
// mapped to its component root. Vertices of one component share a label.
func (x *ComponentIndex) Labels() map[int64]int64 {
	var touched int64
	x.mu.Lock()
	out := make(map[int64]int64, len(x.parent))
	for v := range x.parent {
		out[v] = x.find(v, &touched)
	}
	x.mu.Unlock()
	return out
}

// Seq returns the current sequence number.
func (x *ComponentIndex) Seq() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.seq
}

// Stale reports whether deletes have happened since the last rebuild (the
// labelling may over-merge until the next rebuild runs).
func (x *ComponentIndex) Stale() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.stale
}

// Subscribe registers a new event subscriber. Events after StartSeq are
// delivered on C in order, gap-free; a subscriber that stops draining is
// disconnected by a channel close.
func (x *ComponentIndex) Subscribe() *IndexSub {
	ch := make(chan IndexEvent, subBuffer)
	x.mu.Lock()
	id := x.nextSub
	x.nextSub++
	x.watchers[id] = ch
	seq := x.seq
	x.mu.Unlock()
	return &IndexSub{C: ch, StartSeq: seq, idx: x, id: id}
}

func (x *ComponentIndex) unsubscribe(id uint64) {
	x.mu.Lock()
	if ch, ok := x.watchers[id]; ok {
		close(ch)
		delete(x.watchers, id)
	}
	x.mu.Unlock()
}

// closeAll disconnects every subscriber (index dropped or table gone).
func (x *ComponentIndex) closeAll() {
	x.mu.Lock()
	for id, ch := range x.watchers {
		close(ch)
		delete(x.watchers, id)
	}
	x.mu.Unlock()
}

// noteDeletes records a delete statement and reports whether a rebuild
// should run now. Policy: every delete statement that removed rows
// schedules a rebuild (deletes are the rare, expensive direction; inserts
// are the hot path).
func (x *ComponentIndex) noteDeletes(removed int64) bool {
	if removed <= 0 {
		return false
	}
	x.mu.Lock()
	x.deletes++
	x.stale = true
	x.mu.Unlock()
	return true
}

// applyRebuild replaces the labelling with a freshly computed one and
// folds in any edges observed while the rebuild ran.
func (x *ComponentIndex) applyRebuild(labels map[int64]int64, backlog [][2]int64) {
	x.mu.Lock()
	x.parent = make(map[int64]int64, len(labels))
	x.rank = make(map[int64]int8, len(labels))
	for v, l := range labels {
		x.parent[v] = l
		x.parent[l] = l
	}
	var touched int64
	for _, e := range backlog {
		rv, rw := x.find(e[0], &touched), x.find(e[1], &touched)
		if rv == rw {
			continue
		}
		if x.rank[rv] < x.rank[rw] {
			rv, rw = rw, rv
		} else if x.rank[rv] == x.rank[rw] {
			x.rank[rv]++
		}
		x.parent[rw] = rv
	}
	x.stale = false
	x.seq++
	x.broadcast(IndexEvent{Seq: x.seq, Kind: IndexEventRebuild})
	x.mu.Unlock()
}

// SetComponentRebuilder installs the full-recompute hook rebuilds use: a
// function mapping a physical table name to a fresh vertex→label map. The
// dbcc layer wires this to the deterministic-RC driver (running through
// the prepared-statement path); without one, rebuilds rescan the table
// into a fresh union-find locally.
func (c *Cluster) SetComponentRebuilder(fn func(table string) (map[int64]int64, error)) {
	c.idxMu.Lock()
	c.rebuilder = fn
	c.idxMu.Unlock()
}

// CreateComponentIndex builds a component index over an existing edge
// table (first two columns are the edge endpoints) by scanning its
// current rows, and registers it for maintenance by subsequent InsertRows
// and DeleteRows calls.
func (c *Cluster) CreateComponentIndex(table string) error {
	t, ok := c.Table(table)
	if !ok {
		return fmt.Errorf("engine: table %q does not exist", table)
	}
	if len(t.Schema) < 2 {
		return fmt.Errorf("engine: component index needs at least two columns, table %q has %d", table, len(t.Schema))
	}
	x := newComponentIndex(c, table)
	c.idxMu.Lock()
	if _, exists := c.indexes[table]; exists {
		c.idxMu.Unlock()
		return fmt.Errorf("engine: component index on %q already exists", table)
	}
	c.indexes[table] = x
	c.idxMu.Unlock()
	// Fold in the rows already stored. Rows inserted concurrently are fed
	// through the InsertRows hook; re-observing an edge is idempotent.
	var rows int64
	for _, list := range t.snapshotParts() {
		for _, ch := range list {
			touched, merges := x.observeChunk(ch)
			rows += int64(ch.length)
			c.addIndexCounters(touched, merges, 0)
		}
	}
	c.addTrace(TraceRecord{
		Kind:   "index",
		Target: table,
		Plan:   fmt.Sprintf("CreateComponentIndex(%s, %d rows)", table, rows),
		Rows:   rows,
	})
	return nil
}

// DropComponentIndex removes a table's component index, disconnecting its
// subscribers.
func (c *Cluster) DropComponentIndex(table string) error {
	c.idxMu.Lock()
	x, ok := c.indexes[table]
	if !ok {
		c.idxMu.Unlock()
		return fmt.Errorf("engine: no component index on %q", table)
	}
	delete(c.indexes, table)
	c.idxMu.Unlock()
	x.closeAll()
	return nil
}

// ComponentIndex returns the index registered on a table, if any.
func (c *Cluster) ComponentIndex(table string) (*ComponentIndex, bool) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	x, ok := c.indexes[table]
	return x, ok
}

// feedIndex folds freshly inserted rows into the table's component index,
// if one exists. Called by InsertRows after the table locks are released.
func (c *Cluster) feedIndex(table string, rows []Row) {
	c.idxMu.Lock()
	x, ok := c.indexes[table]
	c.idxMu.Unlock()
	if !ok {
		return
	}
	touched, merges := x.observe(rows)
	c.addIndexCounters(touched, merges, 0)
}

// dropIndexFor tears down the index of a dropped table.
func (c *Cluster) dropIndexFor(table string) {
	c.idxMu.Lock()
	x, ok := c.indexes[table]
	if ok {
		delete(c.indexes, table)
	}
	c.idxMu.Unlock()
	if ok {
		x.closeAll()
	}
}

// renameIndexFor re-keys the index of a renamed table.
func (c *Cluster) renameIndexFor(oldName, newName string) {
	c.idxMu.Lock()
	if x, ok := c.indexes[oldName]; ok {
		delete(c.indexes, oldName)
		x.table = newName
		c.indexes[newName] = x
	}
	c.idxMu.Unlock()
}

// maybeRebuildIndex runs a rebuild of the table's index after a delete
// statement, through the installed rebuilder or a local rescan. Rebuilds
// are serialized per index; edges inserted while one runs are folded into
// its result via the backlog. Must be called with no engine locks held —
// the rebuilder re-enters the cluster to run a full recompute.
func (c *Cluster) maybeRebuildIndex(table string, removed int64) error {
	c.idxMu.Lock()
	x, ok := c.indexes[table]
	rebuilder := c.rebuilder
	c.idxMu.Unlock()
	if !ok || !x.noteDeletes(removed) {
		return nil
	}
	x.rebuildMu.Lock()
	defer x.rebuildMu.Unlock()
	x.mu.Lock()
	x.rebuilding = true
	x.backlog = nil
	x.mu.Unlock()
	var labels map[int64]int64
	var err error
	if rebuilder != nil {
		labels, err = rebuilder(table)
	} else {
		labels, err = c.rescanLabels(table)
	}
	x.mu.Lock()
	x.rebuilding = false
	backlog := x.backlog
	x.backlog = nil
	x.mu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: component index rebuild on %q: %w", table, err)
	}
	x.applyRebuild(labels, backlog)
	c.addIndexCounters(int64(len(labels)), 0, 1)
	return nil
}

// rescanLabels is the fallback rebuilder: a fresh union-find over the
// table's current rows.
func (c *Cluster) rescanLabels(table string) (map[int64]int64, error) {
	t, ok := c.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", table)
	}
	scratch := newComponentIndex(c, table)
	for _, list := range t.snapshotParts() {
		for _, ch := range list {
			scratch.observeChunk(ch)
		}
	}
	return scratch.Labels(), nil
}

// addIndexCounters charges index maintenance work to the statistics.
func (c *Cluster) addIndexCounters(touched, merges, rebuilds int64) {
	if touched == 0 && merges == 0 && rebuilds == 0 {
		return
	}
	c.statsMu.Lock()
	c.stats.IndexLabelsTouched += touched
	c.stats.IndexMerges += merges
	c.stats.IndexRebuilds += rebuilds
	c.statsMu.Unlock()
}
