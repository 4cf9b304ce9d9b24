// Component indexes: incremental connected-component maintenance for edge
// tables. A ComponentIndex is a union-find structure over a table's first
// two int64 columns that every INSERT feeds its chunk as it arrives, so
// component labels stay current under a stream of inserts with amortised
// near-constant relabel work per edge — no recompute on the insert path.
// Deletes can split components, which union-find cannot express, so
// DeleteRows marks the index stale and rebuilds it: one scan of the
// table's chunks into a fresh union-find, swapped in whole. The index
// already holds one entry per vertex in memory, so this is the paper's
// single-machine optimum (Union/Find) rather than a SQL recompute.
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

	"dbcc/internal/xrand"
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

// forest is the index's union-find: every vertex gets a dense int32 id in
// arrival order, and parent and rank are indexed by id. A root is its own
// parent.
type forest struct {
	verts  []int64 // id → vertex
	parent []int32
	rank   []int8
	ids    *groupTable // vertex → id, keyed by xrand.Mix64(vertex); nil once released
}

// release returns the vertex table's arrays to the scratch pools and
// empties the forest.
func (f *forest) release() {
	f.ids.release()
	*f = forest{}
}

// id returns v's id, registering an unseen vertex as its own root, and
// counts a registration as a touched label.
func (f *forest) id(v int64, touched *int64) int32 {
	id, found := f.ids.insertOrGet(xrand.Mix64(uint64(v)), func(id int32) bool { return f.verts[id] == v })
	if !found {
		f.verts = append(f.verts, v)
		f.parent = append(f.parent, id)
		f.rank = append(f.rank, 0)
		*touched++
	}
	return id
}

// find returns the root of id with path compression, counting every
// touched label.
func (f *forest) find(id int32, touched *int64) int32 {
	root := id
	for f.parent[root] != root {
		root = f.parent[root]
	}
	for f.parent[id] != root {
		f.parent[id], id = root, f.parent[id]
		*touched++
	}
	return root
}

// union joins the components of v and w by rank; on a tie the root of v's
// component survives. It returns the absorbed and the surviving root,
// which are equal when v and w were already connected.
func (f *forest) union(v, w int64, touched *int64) (from, to int32) {
	rv := f.find(f.id(v, touched), touched)
	rw := f.find(f.id(w, touched), touched)
	if rv == rw {
		return rv, rv
	}
	if f.rank[rv] < f.rank[rw] {
		rv, rw = rw, rv
	} else if f.rank[rv] == f.rank[rw] {
		f.rank[rv]++
	}
	f.parent[rw] = rv
	*touched++
	return rw, rv
}

// ComponentIndex maintains the connected-component labelling of one edge
// table under streaming inserts. All methods are safe for concurrent use.
type ComponentIndex struct {
	mu     sync.Mutex
	forest // released when the index is dropped
	seq    uint64
	stale  bool // deletes happened; labels may over-merge until rebuilt

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

// newComponentIndex returns an empty index sized for about capHint
// vertices.
func newComponentIndex(capHint int) *ComponentIndex {
	return &ComponentIndex{
		forest:   forest{ids: newGroupTable(capHint)},
		watchers: make(map[uint64]chan IndexEvent),
	}
}

// dropped reports whether the index was dropped (its forest released).
// Caller holds x.mu.
func (x *ComponentIndex) dropped() bool { return x.ids == nil }

// observeChunk folds a chunk of inserted rows into the labelling, in row
// order, emitting one merge event per actual union. Rows whose first two
// columns are not both non-NULL carry no edge and are ignored. Returns the
// labels touched and merges performed, for the cluster counters.
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
// if it joins two components. An edge reaching a dropped index is ignored.
// Caller holds x.mu.
func (x *ComponentIndex) addEdge(v, w int64, touched, merges *int64) {
	if x.dropped() {
		return
	}
	if x.rebuilding {
		x.backlog = append(x.backlog, [2]int64{v, w})
	}
	from, to := x.union(v, w, touched)
	if from == to {
		return
	}
	*merges++
	x.seq++
	x.broadcast(IndexEvent{Seq: x.seq, Kind: IndexEventMerge, From: x.verts[from], To: x.verts[to]})
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
	out := make(map[int64]int64, len(x.verts))
	for id, v := range x.verts {
		out[v] = x.verts[x.find(int32(id), &touched)]
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

// drop disconnects every subscriber and releases the forest (index
// dropped or table gone). Inserts still in flight then fold into nothing.
func (x *ComponentIndex) drop() {
	x.mu.Lock()
	for id, ch := range x.watchers {
		close(ch)
		delete(x.watchers, id)
	}
	x.release()
	x.mu.Unlock()
}

// noteDeletes marks the index stale and reports whether a rebuild should
// run now. Policy: every delete statement that removed rows schedules a
// rebuild (deletes are the rare, expensive direction; inserts are the hot
// path).
func (x *ComponentIndex) noteDeletes(removed int64) bool {
	if removed <= 0 {
		return false
	}
	x.mu.Lock()
	x.stale = true
	x.mu.Unlock()
	return true
}

// observeParts folds every stored chunk of a table snapshot into the
// labelling and returns the rows read, labels touched and merges made.
func (x *ComponentIndex) observeParts(parts [][]*Chunk) (rows, touched, merges int64) {
	for _, list := range parts {
		for _, ch := range list {
			t, m := x.observeChunk(ch)
			rows += int64(ch.length)
			touched += t
			merges += m
		}
	}
	return rows, touched, merges
}

// CreateComponentIndex builds a component index over an existing edge
// table (first two columns are the edge endpoints) by scanning its
// current rows, and registers it for maintenance by subsequent INSERT and
// DELETE statements.
func (c *Cluster) CreateComponentIndex(table string) error {
	t, ok := c.Table(table)
	if !ok {
		return fmt.Errorf("engine: table %q does not exist", table)
	}
	if len(t.Schema) < 2 {
		return fmt.Errorf("engine: component index needs at least two columns, table %q has %d", table, len(t.Schema))
	}
	x := newComponentIndex(int(t.Rows()))
	c.idxMu.Lock()
	if _, exists := c.indexes[table]; exists {
		c.idxMu.Unlock()
		return fmt.Errorf("engine: component index on %q already exists", table)
	}
	c.indexes[table] = x
	c.idxMu.Unlock()
	// Fold in the rows already stored. Rows inserted concurrently are fed
	// through appendRows' feed; re-observing an edge is idempotent.
	rows, touched, merges := x.observeParts(t.snapshotParts())
	c.addIndexCounters(touched, merges, 0)
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
	x.drop()
	return nil
}

// ComponentIndex returns the index registered on a table, if any.
func (c *Cluster) ComponentIndex(table string) (*ComponentIndex, bool) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	x, ok := c.indexes[table]
	return x, ok
}

// feedIndex folds a chunk of freshly inserted rows into the table's
// component index, if one exists, and returns the labels touched and
// merges made. appendRows calls it while still holding the table's write
// lock, so a DELETE can never remove rows the index has not seen yet: a
// rebuild's snapshot then holds exactly the rows fed before it was taken.
func (c *Cluster) feedIndex(table string, ch *Chunk) (touched, merges int64) {
	c.idxMu.Lock()
	x, ok := c.indexes[table]
	c.idxMu.Unlock()
	if !ok {
		return 0, 0
	}
	return x.observeChunk(ch)
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
		x.drop()
	}
}

// renameIndexFor re-keys the index of a renamed table.
func (c *Cluster) renameIndexFor(oldName, newName string) {
	c.idxMu.Lock()
	if x, ok := c.indexes[oldName]; ok {
		delete(c.indexes, oldName)
		c.indexes[newName] = x
	}
	c.idxMu.Unlock()
}

// maybeRebuildIndex rebuilds the table's index after a delete statement
// that removed rows: it scans a snapshot of the table's chunks into a
// fresh forest, without events, and swaps it in. Vertices whose last edge
// was deleted drop out. Rebuilds are serialized per index; edges inserted
// while one scans are replayed from the backlog onto its result. Subscribers
// see one IndexEventRebuild.
func (c *Cluster) maybeRebuildIndex(t *Table, table string, removed int64) {
	c.idxMu.Lock()
	x, ok := c.indexes[table]
	c.idxMu.Unlock()
	if !ok || !x.noteDeletes(removed) {
		return
	}
	x.rebuildMu.Lock()
	defer x.rebuildMu.Unlock()
	x.mu.Lock()
	x.rebuilding = true
	x.backlog = nil
	// Deletes only remove vertices, so the current index's vertex count
	// sizes the rebuilt one; the table's row count would oversize it.
	hint := len(x.verts)
	x.mu.Unlock()
	fresh := newComponentIndex(hint)
	fresh.observeParts(t.snapshotParts())
	vertices := int64(len(fresh.verts))

	var uncharged int64 // the backlog replay costs no counter
	x.mu.Lock()
	x.rebuilding = false
	if x.dropped() {
		fresh.release()
	} else {
		x.release()
		x.forest = fresh.forest
		for _, e := range x.backlog {
			x.union(e[0], e[1], &uncharged)
		}
		x.stale = false
		x.seq++
		x.broadcast(IndexEvent{Seq: x.seq, Kind: IndexEventRebuild})
	}
	x.backlog = nil
	x.mu.Unlock()
	c.addIndexCounters(vertices, 0, 1)
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
