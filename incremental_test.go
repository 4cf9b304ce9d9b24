package dbcc

import (
	"fmt"
	"strings"
	"testing"

	"dbcc/internal/graph"
	"dbcc/internal/unionfind"
)

// partitionEquivalent checks that two labellings induce the same
// partition of the same vertex set: the component index labels with
// representatives, the oracle with canonical minima, so only the
// grouping may be compared, never the label values.
func partitionEquivalent(t *testing.T, got, want Labelling) error {
	t.Helper()
	if len(got) != len(want) {
		return fmt.Errorf("labelled %d vertices, oracle labelled %d", len(got), len(want))
	}
	fwd := make(map[int64]int64) // got label -> want label
	rev := make(map[int64]int64) // want label -> got label
	for v, gl := range got {
		wl, ok := want[v]
		if !ok {
			return fmt.Errorf("vertex %d not in oracle labelling", v)
		}
		if prev, ok := fwd[gl]; ok && prev != wl {
			return fmt.Errorf("label %d maps to both oracle labels %d and %d (vertex %d)", gl, prev, wl, v)
		}
		if prev, ok := rev[wl]; ok && prev != gl {
			return fmt.Errorf("oracle label %d maps to both labels %d and %d (vertex %d)", wl, prev, gl, v)
		}
		fwd[gl] = wl
		rev[wl] = gl
	}
	return nil
}

// shuffled returns a deterministic permutation of g's edges (an xorshift
// Fisher–Yates; arrival order must not affect the maintained partition).
func shuffled(edges []graph.Edge, seed uint64) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	copy(out, edges)
	x := seed | 1
	for i := len(out) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// oracleLabels runs the sequential Union/Find baseline over a prefix of
// the edge stream.
func oracleLabels(edges []graph.Edge) Labelling {
	g := graph.New(len(edges))
	for _, e := range edges {
		g.AddEdge(e.V, e.W)
	}
	return unionfind.Components(g)
}

// insertBatch issues one INSERT statement covering edges — the whole
// batch is a single statement, which is what the bounded-work pin below
// counts.
func insertBatch(t *testing.T, db *DB, edges []graph.Edge) {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT INTO edges VALUES ")
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d)", e.V, e.W)
	}
	if _, err := db.SQL().Exec(b.String()); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalPrefixEquivalence is the tentpole correctness gate:
// stream a graph's edges into an indexed table in batches and require,
// after every prefix, that the maintained labelling is
// partition-equivalent to the Union/Find oracle on that prefix — across
// graph families and arrival orders — while each insert statement stays
// bounded: exactly one engine query (no recompute on the insert path)
// and amortised-constant union-find work per edge.
func TestIncrementalPrefixEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"path", GeneratePath(600)},
		{"path_union", GeneratePathUnion(8, 600)},
		{"rmat", GenerateRMAT(9, 900, 7)},
		{"bitcoin", GenerateBitcoin(150, 11)},
		{"friendster", GenerateFriendster(300, 2, 13)},
	}
	orders := []struct {
		name    string
		arrange func([]graph.Edge) []graph.Edge
	}{
		{"natural", func(es []graph.Edge) []graph.Edge { return es }},
		{"shuffled", func(es []graph.Edge) []graph.Edge { return shuffled(es, 2019) }},
	}
	for _, fam := range families {
		for _, ord := range orders {
			t.Run(fam.name+"/"+ord.name, func(t *testing.T) {
				db := Open(Config{Segments: 4})
				defer db.Close()
				s := db.SQL()
				if _, err := s.Exec("CREATE TABLE edges (v1, v2); CREATE COMPONENT INDEX ON edges"); err != nil {
					t.Fatal(err)
				}
				edges := ord.arrange(fam.g.Edges)
				const batch = 64
				for off := 0; off < len(edges); off += batch {
					end := off + batch
					if end > len(edges) {
						end = len(edges)
					}
					before := db.Cluster().Stats()
					insertBatch(t, db, edges[off:end])
					after := db.Cluster().Stats()
					// Bounded work, pin 1: the insert path runs exactly the
					// one INSERT statement — a full recompute would show up
					// as the rc-det round loop's many queries.
					if d := after.Queries - before.Queries; d != 1 {
						t.Fatalf("insert of rows [%d,%d) ran %d engine queries, want exactly 1", off, end, d)
					}
					if after.IndexRebuilds != before.IndexRebuilds {
						t.Fatalf("insert triggered a rebuild")
					}
					got, err := db.ComponentLabels("edges")
					if err != nil {
						t.Fatal(err)
					}
					if err := partitionEquivalent(t, got, oracleLabels(edges[:end])); err != nil {
						t.Fatalf("prefix %d: %v", end, err)
					}
				}
				// Bounded work, pin 2: total union-find label work is
				// amortised near-linear in the stream. 8 parent-pointer
				// writes per edge plus 4 per vertex is far above the
				// O(m·α(n)) reality but far below quadratic relabelling.
				st := db.Cluster().Stats()
				limit := int64(8*len(edges) + 4*fam.g.NumVertices())
				if st.IndexLabelsTouched > limit {
					t.Fatalf("touched %d labels over %d edges; bound %d", st.IndexLabelsTouched, len(edges), limit)
				}
			})
		}
	}
}

// TestIncrementalDeleteRebuild exercises the other half of the
// maintenance contract: DELETE statements mark the index stale and
// rebuild it from the table's surviving rows, after which the labelling
// matches the oracle on the surviving edges and holds no vertex that lost
// its last edge.
func TestIncrementalDeleteRebuild(t *testing.T) {
	db := Open(Config{Segments: 4})
	defer db.Close()
	s := db.SQL()
	if _, err := s.Exec("CREATE TABLE edges (v1, v2); CREATE COMPONENT INDEX ON edges"); err != nil {
		t.Fatal(err)
	}
	// Two chains joined by a bridge: 0-1-...-49 and 100-101-...-149,
	// bridge (49,100).
	g := graph.New(0)
	for v := int64(0); v < 49; v++ {
		g.AddEdge(v, v+1)
	}
	for v := int64(100); v < 149; v++ {
		g.AddEdge(v, v+1)
	}
	g.AddEdge(49, 100)
	insertBatch(t, db, g.Edges)

	if got, _ := db.ComponentLabels("edges"); got.NumComponents() != 1 {
		t.Fatalf("bridged chains labelled as %d components, want 1", got.NumComponents())
	}

	// Cut the bridge. The insert path cannot un-merge; the delete must
	// trigger a rebuild that can.
	before := db.Cluster().Stats()
	n, err := s.Exec("DELETE FROM edges WHERE v1 = 49 AND v2 = 100")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	after := db.Cluster().Stats()
	if after.IndexRebuilds != before.IndexRebuilds+1 {
		t.Fatalf("delete ran %d rebuilds, want 1", after.IndexRebuilds-before.IndexRebuilds)
	}
	got, err := db.ComponentLabels("edges")
	if err != nil {
		t.Fatal(err)
	}
	remaining := graph.New(0)
	for _, e := range g.Edges {
		if !(e.V == 49 && e.W == 100) {
			remaining.AddEdge(e.V, e.W)
		}
	}
	if err := partitionEquivalent(t, got, oracleLabels(remaining.Edges)); err != nil {
		t.Fatal(err)
	}
	if got.NumComponents() != 2 {
		t.Fatalf("after cutting the bridge: %d components, want 2", got.NumComponents())
	}

	// Delete the pendant edge (0,1): vertex 0 loses its only edge, so the
	// rebuilt index must drop it rather than keep it as a singleton.
	if _, err := s.Exec("DELETE FROM edges WHERE v1 = 0 AND v2 = 1"); err != nil {
		t.Fatal(err)
	}
	got, err = db.ComponentLabels("edges")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[0]; ok {
		t.Fatal("vertex 0 lost its last edge but is still labelled")
	}
	if err := partitionEquivalent(t, got, oracleLabels(remaining.Edges[1:])); err != nil {
		t.Fatal(err)
	}
	after = db.Cluster().Stats()

	// A delete that removes nothing must not rebuild.
	if _, err := s.Exec("DELETE FROM edges WHERE v1 = 99999"); err != nil {
		t.Fatal(err)
	}
	if db.Cluster().Stats().IndexRebuilds != after.IndexRebuilds {
		t.Fatalf("no-op delete triggered a rebuild")
	}
}

// TestWatchDeliversMergesAndRebuilds checks the subscription contract:
// gap-free monotonic sequence numbers, merge events for inserts that
// join components, and a rebuild event after a delete.
func TestWatchDeliversMergesAndRebuilds(t *testing.T) {
	db := Open(Config{Segments: 4})
	defer db.Close()
	s := db.SQL()
	if _, err := s.Exec("CREATE TABLE edges (v1, v2); CREATE COMPONENT INDEX ON edges"); err != nil {
		t.Fatal(err)
	}
	w, err := db.Watch("edges")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	collected := make(chan []IndexEvent, 1)
	go func() {
		var evs []IndexEvent
		for ev := range w.C {
			evs = append(evs, ev)
			if ev.Kind == IndexEventRebuild {
				collected <- evs
				return
			}
		}
		collected <- evs
	}()

	// Three merges: 1-2, 3-4, then the joining edge 2-3.
	insertBatch(t, db, []graph.Edge{{V: 1, W: 2}, {V: 3, W: 4}, {V: 2, W: 3}})
	// Self-loop insert: registers a vertex, merges nothing.
	insertBatch(t, db, []graph.Edge{{V: 9, W: 9}})
	if _, err := s.Exec("DELETE FROM edges WHERE v1 = 2"); err != nil {
		t.Fatal(err)
	}

	evs := <-collected
	seq := w.StartSeq
	var merges, rebuilds int
	for _, ev := range evs {
		if ev.Seq != seq+1 {
			t.Fatalf("sequence gap: %d after %d", ev.Seq, seq)
		}
		seq = ev.Seq
		switch ev.Kind {
		case IndexEventMerge:
			merges++
			if ev.From == ev.To {
				t.Fatalf("merge event with From == To == %d", ev.From)
			}
		case IndexEventRebuild:
			rebuilds++
		default:
			t.Fatalf("unknown event kind %d", ev.Kind)
		}
	}
	if merges != 3 {
		t.Fatalf("saw %d merge events, want 3", merges)
	}
	if rebuilds != 1 {
		t.Fatalf("saw %d rebuild events, want 1", rebuilds)
	}

	// Dropping the index closes the subscription.
	if err := db.DropComponentIndex("edges"); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-w.C; ok {
		t.Fatal("subscription channel still open after DROP COMPONENT INDEX")
	}
}

// TestInsertSelectFeedsIndex covers the INSERT ... SELECT statement: rows
// produced by a query flow through the same maintenance hook as literal
// VALUES.
func TestInsertSelectFeedsIndex(t *testing.T) {
	db := Open(Config{Segments: 4})
	defer db.Close()
	s := db.SQL()
	stmts := `
		CREATE TABLE staged (v1, v2);
		INSERT INTO staged VALUES (1,2),(2,3),(10,11);
		CREATE TABLE edges (v1, v2);
		CREATE COMPONENT INDEX ON edges;
		INSERT INTO edges SELECT v1, v2 FROM staged`
	if _, err := s.Exec(stmts); err != nil {
		t.Fatal(err)
	}
	got, err := db.ComponentLabels("edges")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumComponents() != 2 {
		t.Fatalf("%d components, want 2 (1-2-3 and 10-11)", got.NumComponents())
	}
	if err := partitionEquivalent(t, got, oracleLabels([]graph.Edge{{V: 1, W: 2}, {V: 2, W: 3}, {V: 10, W: 11}})); err != nil {
		t.Fatal(err)
	}
}
