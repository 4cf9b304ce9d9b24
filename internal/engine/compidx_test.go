package engine_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/unionfind"
	"dbcc/internal/verify"
	"dbcc/internal/xrand"
)

// TestComponentIndexInsertsRacingRebuilds streams insert batches into an
// indexed table while another goroutine keeps deleting rows, so rebuilds
// scan the table while inserts land and the inserts are replayed from the
// rebuild backlog. However the two interleave, the final labelling must
// be the Union/Find labelling of the rows the table holds, and a
// subscriber must see every sequence number exactly once.
func TestComponentIndexInsertsRacingRebuilds(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 4})
	defer c.Close()
	if _, err := c.CreateTable("edges", engine.Schema{"v1", "v2"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateComponentIndex("edges"); err != nil {
		t.Fatal(err)
	}
	idx, _ := c.ComponentIndex("edges")
	sub := idx.Subscribe()

	type watched struct{ events, gaps, rebuilds int }
	done := make(chan watched, 1)
	go func() {
		var got watched
		next := sub.StartSeq + 1
		for ev := range sub.C {
			if ev.Seq != next {
				got.gaps++
			}
			next = ev.Seq + 1
			got.events++
			if ev.Kind == engine.IndexEventRebuild {
				got.rebuilds++
			}
		}
		done <- got
	}()

	// The inserter streams at least minBatches batches and keeps going
	// until the deleter has run its rebuilds, so every rebuild races
	// inserts. 1000 vertices keep the event count far below the
	// subscriber buffer, so a gap can only mean a lost sequence number.
	const vertices, minBatches, batchRows, rebuilds = 1000, 200, 32, 20
	var deleterDone atomic.Bool
	var wg sync.WaitGroup
	var insertErr, deleteErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := xrand.New(34)
		for b := 0; b < minBatches || !deleterDone.Load(); b++ {
			rows := make([]engine.Row, batchRows)
			for i := range rows {
				rows[i] = engine.Row{engine.I(rng.Int63n(vertices)), engine.I(rng.Int63n(vertices))}
			}
			if insertErr = c.InsertRows("edges", rows); insertErr != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer deleterDone.Store(true)
		// Each delete removes one residue class of v1+v2, a few percent
		// of the rows; one that finds nothing to remove does not rebuild.
		for k, done := int64(0), 0; done < rebuilds; k = (k + 1) % 7 {
			removed, err := c.DeleteRows(context.Background(), "edges", func(r engine.Row) bool { return (r[0].Int+r[1].Int)%7 != k })
			if deleteErr = err; err != nil {
				return
			}
			if removed > 0 {
				done++
			}
		}
	}()
	wg.Wait()
	if insertErr != nil || deleteErr != nil {
		t.Fatalf("insert: %v, delete: %v", insertErr, deleteErr)
	}

	rows, err := c.ReadAll("edges")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(len(rows))
	for _, r := range rows {
		g.AddEdge(r[0].Int, r[1].Int)
	}
	if err := verify.Equivalent(idx.Labels(), unionfind.Components(g)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.IndexRebuilds != rebuilds {
		t.Fatalf("IndexRebuilds = %d, want one per row-removing delete (%d)", st.IndexRebuilds, rebuilds)
	}
	sub.Close()
	got := <-done
	if got.gaps != 0 {
		t.Fatalf("subscriber saw %d sequence gaps in %d events", got.gaps, got.events)
	}
	if got.rebuilds != rebuilds {
		t.Fatalf("subscriber saw %d rebuild events, want %d", got.rebuilds, rebuilds)
	}
}
