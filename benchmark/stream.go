package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"dbcc"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/unionfind"
	"dbcc/internal/verify"
)

// streamTable is the indexed table the edges are streamed into.
const streamTable = "stream"

// streamInstance streams one growing graph into an indexed, watched table.
// A repetition is the whole stream into a fresh table, so every repetition
// does the same work: with one ever-growing table a faster build would get
// further into the stream, where inserts cost more, and be charged for it.
type streamInstance struct {
	db      *dbcc.DB
	g       *graph.Graph
	batches [][]engine.Row
	deletes map[int]graph.Edge // batch index → edge deleted after that batch

	oracle graph.Labelling // of the edges that survive the deletes
}

func setupStream(seed uint64, scale int, tr *tracer, parent int32) (instance, error) {
	t0 := time.Now()
	s := &streamInstance{g: streamGraph(seed, scale), deletes: map[int]graph.Edge{}}
	for off := 0; off < len(s.g.Edges); off += streamBatch {
		edges := s.g.Edges[off:min(off+streamBatch, len(s.g.Edges))]
		rows := make([]engine.Row, len(edges))
		for i, e := range edges {
			rows[i] = engine.Row{engine.I(e.V), engine.I(e.W)}
		}
		s.batches = append(s.batches, rows)
		if len(s.batches)%streamDeleteEvery == 0 {
			s.deletes[len(s.batches)-1] = edges[0]
		}
	}
	if len(s.deletes) == 0 { // scaled-down streams still exercise the rebuild
		s.deletes[len(s.batches)-1] = s.g.Edges[len(s.g.Edges)-1]
	}
	tr.add("datagen.gen", parent, noSpan, t0, time.Now())
	s.db = dbcc.Open(dbcc.Config{})
	return s, nil
}

// ensureOracle computes the labelling the index must end with: Union/Find
// over the streamed edges minus, at each delete, every copy of the deleted
// edge inserted up to then (DELETE removes all matching rows).
func (s *streamInstance) ensureOracle() {
	if s.oracle != nil {
		return
	}
	kept := graph.New(len(s.g.Edges))
	for b, rows := range s.batches {
		for _, r := range rows {
			kept.AddEdge(r[0].Int, r[1].Int)
		}
		if del, ok := s.deletes[b]; ok {
			live := kept.Edges[:0]
			for _, e := range kept.Edges {
				if e != del {
					live = append(live, e)
				}
			}
			kept.Edges = live
		}
	}
	s.oracle = unionfind.Components(kept)
}

func (s *streamInstance) input() fingerprint {
	return fingerprintOf(unionfind.CountComponents(s.g), s.g)
}

func (s *streamInstance) close() error { return s.db.Close() }

func (s *streamInstance) rep(_ int, w *window, tr *tracer) error {
	s.ensureOracle()
	cl := s.db.Cluster()
	sess := s.db.SQL()
	cl.ResetStats()
	if _, err := cl.CreateTable(streamTable, engine.Schema{"v1", "v2"}, 0); err != nil {
		return err
	}
	defer cl.DropTable(streamTable)
	if err := s.db.CreateComponentIndex(streamTable); err != nil {
		return err
	}
	watch, err := s.db.Watch(streamTable)
	if err != nil {
		return err
	}
	run := tr.newRun()
	repSpan := tr.begin("rep", noSpan, run, time.Now())

	// The subscriber drains events as they arrive and checks that the
	// sequence numbers are gap-free. batchStart is the start time of the
	// insert in flight: delivery lag is measured from it, and a traced
	// repetition records one watch.deliver span per batch, from that start
	// to the batch's last event.
	var batchStart atomic.Int64
	type watched struct {
		events, gaps int64
		lag          []float64  // µs
		deliver      [][2]int64 // unix ns
	}
	done := make(chan watched, 1)
	traced := tr != nil
	go func() {
		var got watched
		next := watch.StartSeq + 1
		for ev := range watch.C {
			if ev.Seq != next {
				got.gaps++
			}
			next = ev.Seq + 1
			got.events++
			if !traced {
				continue
			}
			from, now := batchStart.Load(), time.Now().UnixNano()
			got.lag = append(got.lag, float64(now-from)/1e3)
			if n := len(got.deliver); n > 0 && got.deliver[n-1][0] == from {
				got.deliver[n-1][1] = now
			} else {
				got.deliver = append(got.deliver, [2]int64{from, now})
			}
		}
		done <- got
	}()

	// A traced repetition reads the engine's statement trace after every
	// statement it issues (outside the timed regions), because one
	// repetition runs more statements than the trace ring holds.
	var recs []engine.TraceRecord
	collect := func() {
		if tr == nil {
			return
		}
		for _, rec := range cl.Trace() {
			if rec.Seq >= int64(len(recs)) {
				recs = append(recs, rec)
			}
		}
	}

	var failure error
	for b, rows := range s.batches {
		t0 := time.Now()
		batchStart.Store(t0.UnixNano())
		d := w.timed(func() { err = cl.InsertRows(streamTable, rows) })
		tr.add("engine.insert_batch", repSpan, run, t0, t0.Add(d))
		w.ops++
		w.op(d, tr != nil)
		w.check(err)
		if err != nil {
			failure = err
			break
		}
		collect()
		if del, ok := s.deletes[b]; ok {
			t0 := time.Now()
			d := w.timed(func() {
				_, err = sess.Exec(fmt.Sprintf("DELETE FROM %s WHERE v1 = %d AND v2 = %d", streamTable, del.V, del.W))
			})
			tr.add("sql.delete_rebuild", repSpan, run, t0, t0.Add(d))
			w.ops++
			w.sample("delete_s", d.Seconds())
			w.check(err)
			if err != nil {
				failure = err
				break
			}
			collect()
		}
	}
	tr.finish(repSpan, time.Now())

	labels, err := s.db.ComponentLabels(streamTable)
	watch.Close()
	got := <-done
	for _, d := range got.deliver {
		tr.add("watch.deliver", repSpan, run, time.Unix(0, d[0]), time.Unix(0, d[1]))
	}
	if failure != nil {
		return failure
	}
	if err == nil {
		err = verify.Equivalent(labels, s.oracle)
	}
	w.check(err)
	if got.gaps > 0 {
		w.check(fmt.Errorf("watch: %d sequence gaps", got.gaps))
	}
	w.sample("watch_events", float64(got.events))
	w.sample("watch_gaps", float64(got.gaps))
	w.samples["watch_lag_us"] = append(w.samples["watch_lag_us"], got.lag...)

	st := cl.Stats()
	ops := len(s.batches) + len(s.deletes)
	w.count(ops, st.Queries, st.BytesWritten, st.PeakBytes)
	w.sample("index_touched_per_edge", float64(st.IndexLabelsTouched)/float64(len(s.g.Edges)))
	w.sample("index_merges", float64(st.IndexMerges))
	w.sample("index_rebuilds", float64(st.IndexRebuilds))
	if tr != nil {
		mark := tr.mark()
		tr.addEngineTrace(recs, repSpan, run)
		engineLayers(w, recs, selfSeconds(tr.since(mark)), st.Queries, ops)
	}
	return nil
}

func (s *streamInstance) layers(w *window) error {
	var gaps float64
	for _, g := range w.samples["watch_gaps"] {
		gaps += g
	}
	w.once["engine.index_labels_touched_per_edge"] = median(w.samples["index_touched_per_edge"])
	w.once["engine.index_merges"] = median(w.samples["index_merges"])
	w.once["engine.index_rebuilds"] = median(w.samples["index_rebuilds"])
	w.once["engine.insert_batch_p50_us"] = median(w.lat) * 1e3
	w.once["engine.watch_events"] = median(w.samples["watch_events"])
	w.once["engine.watch_seq_gaps"] = gaps
	w.once["engine.watch_lag_p50_us"] = median(w.samples["watch_lag_us"])
	w.once["ccalg.rebuild_s"] = median(w.samples["delete_s"])
	return nil
}
