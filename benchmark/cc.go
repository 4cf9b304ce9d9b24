package main

import (
	"fmt"
	"time"

	"dbcc"
	"dbcc/internal/ccalg"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/unionfind"
	"dbcc/internal/verify"
)

// seedCycle is how many Randomised Contraction seeds the CC workloads
// cycle through, repetition i using seed i mod seedCycle. One seed would
// tie every number to a single draw of the round count, which ranges over
// 10–17 on these inputs; the cycle makes medians describe the algorithm.
// The sequence is fixed, so counters still repeat exactly (see window).
const seedCycle = 16

// ccTable is the pre-loaded edge table of the resident-data workloads.
const ccTable = "edges"

// ccInstance runs one algorithm again and again on one resident table:
// the paper's scenario of data already in the database.
type ccInstance struct {
	db     *dbcc.DB
	g      *graph.Graph
	params dbcc.Params
	probes bool // run the engine probes on this table in finish

	oracle   graph.Labelling
	oracleAt float64 // seconds the sequential oracle took
}

func setupGrid(seed uint64, scale int, tr *tracer, parent int32) (instance, error) {
	c, err := setupCC(func() *graph.Graph { return gridGraph(seed, scale) },
		dbcc.Params{Algorithm: dbcc.RandomisedContraction, Method: dbcc.FiniteFields, Variant: dbcc.Fast}, tr, parent)
	if err == nil {
		c.probes = true
	}
	return c, err
}

func setupSkew(seed uint64, scale int, tr *tracer, parent int32) (instance, error) {
	return setupCC(func() *graph.Graph { return skewGraph(seed, scale) },
		dbcc.Params{Algorithm: dbcc.RandomisedContraction, Method: dbcc.FiniteFields, Variant: dbcc.Fast}, tr, parent)
}

func setupTP(seed uint64, scale int, tr *tracer, parent int32) (instance, error) {
	return setupCC(func() *graph.Graph { return bitcoinGraph(seed, scale) },
		dbcc.Params{Algorithm: dbcc.TwoPhase}, tr, parent)
}

func setupCC(gen func() *graph.Graph, p dbcc.Params, tr *tracer, parent int32) (*ccInstance, error) {
	c := &ccInstance{params: p}
	t0 := time.Now()
	c.g = gen()
	t1 := time.Now()
	tr.add("datagen.gen", parent, noSpan, t0, t1)
	c.db = dbcc.Open(dbcc.Config{})
	if err := c.db.LoadGraph(ccTable, c.g); err != nil {
		return nil, err
	}
	tr.add("graph.load", parent, noSpan, t1, time.Now())
	return c, nil
}

func (c *ccInstance) ensureOracle() {
	if c.oracle == nil {
		t0 := time.Now()
		c.oracle = unionfind.Components(c.g)
		c.oracleAt = time.Since(t0).Seconds()
	}
}

func (c *ccInstance) input() fingerprint {
	c.ensureOracle()
	return fingerprintOf(c.oracle.NumComponents(), c.g)
}

func (c *ccInstance) close() error { return c.db.Close() }

func (c *ccInstance) rep(i int, w *window, tr *tracer) error {
	c.ensureOracle()
	p := c.params
	p.Seed = uint64(i % seedCycle)
	run := tr.newRun()
	var res *dbcc.Result
	var err error
	t0 := time.Now()
	d := w.timed(func() { res, err = c.db.ConnectedComponentsOf(ccTable, p) })
	if err != nil {
		return err
	}
	w.ops++
	w.op(d, tr != nil)
	w.count(1, res.Stats.Queries, res.Stats.BytesWritten, res.Stats.PeakBytes)
	if tr != nil {
		recordRun(tr, w, c.db.Cluster(), res, run, t0, t0.Add(d))
	}
	v0 := time.Now()
	w.check(verify.Equivalent(res.Labels, c.oracle))
	tr.add("verify", noSpan, run, v0, time.Now())
	return nil
}

func (c *ccInstance) layers(w *window) error {
	w.once["unionfind.components_medges_per_s"] = float64(c.g.NumEdges()) / 1e6 / c.oracleAt
	if err := roundLayers(w, c.db.Cluster(), ccTable, c.params); err != nil {
		return err
	}
	if c.probes {
		return engineProbes(w, c.db.Cluster(), ccTable)
	}
	return nil
}

// recordRun records the spans of one finished CC run — rep › ccalg.run ›
// one engine.stmt per statement with its operator tree — and derives the
// run's layer metrics from their self times and the statement records.
func recordRun(tr *tracer, w *window, cl *engine.Cluster, res *dbcc.Result, run int32, start, end time.Time) {
	mark := tr.mark()
	rep := tr.add("rep", noSpan, run, start, end)
	id := tr.add("ccalg.run", rep, run, start, end)
	recs := cl.Trace()
	tr.addEngineTrace(recs, id, run)
	self := selfSeconds(tr.since(mark))
	engineLayers(w, recs, self, res.Stats.Queries, 1)
	w.layerAdd("engine.shuffle_saved_bytes", float64(res.Stats.ShuffleSavedBytes))
	w.layerAdd("ccalg.driver_s", self["ccalg.run"])
	w.layerAdd("ccalg.rounds", float64(res.Rounds))
	if res.Rounds > 0 {
		w.layerAdd("ccalg.queries_per_round", float64(res.Stats.Queries)/float64(res.Rounds))
	}
	w.layerAdd("sql.parses", float64(res.Stats.Parses))
	if lookups := res.Stats.PlanCacheHits + res.Stats.PlanCacheMisses; lookups > 0 {
		w.layerAdd("sql.plan_cache_hit_ratio", float64(res.Stats.PlanCacheHits)/float64(lookups))
	}
}

// skewMinRows is the smallest operator output max_skew looks at; below it
// max/mean over 8 segments says nothing.
const skewMinRows = 1000

// engineLayers turns the statement records of one repetition of ops
// operations into the engine.* layer metrics, per operation. The trace
// ring keeps the last 256 statements; when the repetition issued more
// (statements > len(recs)) the sums are scaled up by that ratio, i.e. the
// captured statements are taken as a sample of a stationary mix.
func engineLayers(w *window, recs []engine.TraceRecord, self map[string]float64, statements int64, ops int) {
	if len(recs) == 0 || ops == 0 {
		return
	}
	scale := 1 / float64(ops)
	if statements > int64(len(recs)) {
		scale *= float64(statements) / float64(len(recs))
	}
	var stmt float64
	var shuffle, rows, spilled, retries, checked, skipped int64
	var skew float64
	var walk func(m *engine.OpMetrics)
	walk = func(m *engine.OpMetrics) {
		checked += m.BloomChecked
		skipped += m.BloomSkipped
		if m.Rows >= skewMinRows {
			skew = max(skew, m.Skew())
		}
		for _, ch := range m.Children {
			walk(ch)
		}
	}
	for _, rec := range recs {
		stmt += rec.Elapsed.Seconds()
		shuffle += rec.Shuffle
		if rec.Kind == "create" || rec.Kind == "insert" {
			rows += rec.Rows
		}
		if rec.Root != nil {
			spilled += rec.Root.TotalSpilled()
			retries += rec.Root.TotalRetries()
			walk(rec.Root)
		}
	}
	op := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += self["engine.op."+n]
		}
		return s * scale
	}
	w.layerAdd("engine.scan_s", op("Scan", "Values"))
	w.layerAdd("engine.filter_project_s", op("Filter", "Project"))
	w.layerAdd("engine.join_s", op("HashJoin", "HashLeftJoin"))
	w.layerAdd("engine.groupby_s", op("GroupBy"))
	w.layerAdd("engine.distinct_s", op("Distinct"))
	w.layerAdd("engine.sort_s", op("Sort"))
	w.layerAdd("engine.unionall_s", op("UnionAll"))
	w.layerAdd("engine.materialise_s", self["engine.stmt"]*scale)
	w.layerAdd("engine.stmt_s", stmt*scale)
	w.layerAdd("engine.statements", float64(len(recs))*scale)
	w.layerAdd("engine.stmt_fixed_us", stmt/float64(len(recs))*1e6)
	w.layerAdd("engine.shuffle_bytes", float64(shuffle)*scale)
	w.layerAdd("engine.rows_written", float64(rows)*scale)
	w.layerAdd("engine.spilled_bytes", float64(spilled)*scale)
	w.layerAdd("engine.retries", float64(retries)*scale)
	w.layerAdd("engine.max_skew", skew)
	if checked > 0 {
		w.layerAdd("engine.bloom_skip_ratio", float64(skipped)/float64(checked))
	}
}

// roundLayers runs the driver once more through internal/ccalg, which —
// unlike the public dbcc API — returns the per-round log, and reports how
// fast the live edge set shrinks: the geometric mean over rounds of
// LiveEdges after / before (the paper's Figs. 6–9 in one number).
func roundLayers(w *window, cl *engine.Cluster, table string, p dbcc.Params) error {
	info, ok := ccalg.ByName(p.Algorithm)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", p.Algorithm)
	}
	res, err := info.Run(cl, table, ccalg.Options{Seed: p.Seed, RC: ccalg.RCOptions{Method: p.Method, Variant: p.Variant}})
	if err != nil {
		return err
	}
	var ratios []float64
	for i := 1; i < len(res.RoundLog); i++ {
		if prev := res.RoundLog[i-1].LiveEdges; prev > 0 {
			ratios = append(ratios, float64(res.RoundLog[i].LiveEdges)/float64(prev))
		}
	}
	w.once["ccalg.edge_shrink"] = geomean(ratios)
	return nil
}

// smallChunk is how many cc_small operations make one repetition (the
// garbage collector runs between repetitions, outside the timed regions).
const smallChunk = 64

// smallInstance runs load + rc + drop over many small graphs on one DB.
type smallInstance struct {
	db       *dbcc.DB
	gs       []*graph.Graph
	oracles  []graph.Labelling
	oracleAt float64
}

func setupSmall(seed uint64, scale int, tr *tracer, parent int32) (instance, error) {
	t0 := time.Now()
	s := &smallInstance{gs: smallGraphs(seed, scale)}
	tr.add("datagen.gen", parent, noSpan, t0, time.Now())
	s.db = dbcc.Open(dbcc.Config{})
	return s, nil
}

func (s *smallInstance) ensureOracles() {
	if s.oracles != nil {
		return
	}
	t0 := time.Now()
	s.oracles = make([]graph.Labelling, len(s.gs))
	for i, g := range s.gs {
		s.oracles[i] = unionfind.Components(g)
	}
	s.oracleAt = time.Since(t0).Seconds()
}

func (s *smallInstance) input() fingerprint {
	s.ensureOracles()
	components := 0
	for _, o := range s.oracles {
		components += o.NumComponents()
	}
	return fingerprintOf(components, s.gs...)
}

func (s *smallInstance) close() error { return s.db.Close() }

func (s *smallInstance) rep(i int, w *window, tr *tracer) error {
	s.ensureOracles()
	for j := 0; j < smallChunk; j++ {
		n := i*smallChunk + j
		g := s.gs[n%len(s.gs)]
		run := tr.newRun()
		var res *dbcc.Result
		var err error
		t0 := time.Now()
		d := w.timed(func() { res, err = s.db.ConnectedComponents(g, dbcc.Params{Seed: uint64(n % seedCycle)}) })
		if err != nil {
			return err
		}
		w.ops++
		w.op(d, tr != nil)
		w.count(1, res.Stats.Queries, res.Stats.BytesWritten, res.Stats.PeakBytes)
		if tr != nil {
			recordRun(tr, w, s.db.Cluster(), res, run, t0, t0.Add(d))
		}
		w.check(verify.Equivalent(res.Labels, s.oracles[n%len(s.gs)]))
	}
	return nil
}

func (s *smallInstance) layers(w *window) error {
	var edges int
	for _, g := range s.gs {
		edges += g.NumEdges()
	}
	w.once["unionfind.components_medges_per_s"] = float64(edges) / 1e6 / s.oracleAt
	if err := s.db.LoadGraph(ccTable, s.gs[0]); err != nil {
		return err
	}
	if err := roundLayers(w, s.db.Cluster(), ccTable, dbcc.Params{Algorithm: dbcc.RandomisedContraction}); err != nil {
		return err
	}
	return sqlProbes(w, s.db)
}
