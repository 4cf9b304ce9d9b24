package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dbcc"
	"dbcc/internal/client"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/server"
	"dbcc/internal/sql"
	"dbcc/internal/unionfind"
	"dbcc/internal/wire"
	"dbcc/internal/xrand"
)

// connections is the closed-loop client count of serve_mix: one per core
// the benchmark runs on, never more threads or connections than cores.
func connections() int { return runtime.GOMAXPROCS(0) }

// serveSlice is the length of one serve_mix repetition: the connections
// run the mix for this long, then pause while the collector runs.
const serveSlice = 500 * time.Millisecond

// serveTenants are the tenant catalogs the connections are spread over.
var serveTenants = []string{"a", "b"}

// The op mix: every connection repeats one cycle of 20 operations in an
// order its seed shuffles, so the shares are exact (60 % INSERT, 20 %
// count, 15 % row streaming, 5 % CC) over any window and the per-operation
// counters do not carry the sampling noise a random draw per op would add.
var mixCycle = map[opKind]int{
	opInsert: 12, // single-row INSERT into the connection's scratch table
	opCount:  4,  // SELECT count(*) over it
	opRows:   3,  // SELECT of serveBigRows rows, streamed
	opCC:     1,  // CC on the tenant's ~400-edge graph
}

// meanLatency is serve_mix's op_ms: the mean latency of its SQL
// statements. The median is not used: the statements have three modes
// (14 µs inserts, 0.1 ms counts, 0.5 ms row streams) and the pooled median
// falls in the thin stretch between the first two, where it moved by 20 %
// from run to run while every mode stayed put; over ten runs the mean
// spread half as much as any quantile or per-kind median.
func meanLatency(w *window) float64 {
	var sum float64
	for _, ms := range w.lat {
		sum += ms
	}
	return sum / float64(max(len(w.lat), 1))
}

// Statement texts. Every table is a parameter, so one plan template per
// shape is shared by all connections and tenants.
const (
	sqlInsert = "INSERT INTO $1 VALUES ($2, $3)"
	sqlCount  = "SELECT count(*) AS n FROM $1 AS s"
	sqlRows   = "SELECT v1, v2 FROM $1 AS b"
)

type opKind int

const (
	opInsert opKind = iota
	opCount
	opRows
	opTruncate
	opCC
)

// kindLatency names the window's latency series (ms) of each op kind.
var kindLatency = map[opKind]string{
	opInsert: "insert_ms", opCount: "count_ms", opRows: "rows_ms", opTruncate: "truncate_ms", opCC: "cc_ms",
}

// sqlRunner is how a mix connection reaches the database: over the wire
// through internal/client, or — for server.overhead_us — the same
// statements through an embedded sql.Session, bypassing wire, admission
// and result encoding.
type sqlRunner interface {
	insert(table string, k, x int64) error
	count(table string) (int64, error)
	rows(table string) ([]engine.Row, error)
	truncate(table string) error
	cc(table string, seed uint64) (components, vertices int64, err error)
}

type wireRunner struct {
	c                *client.Client
	ins, cnt, rowsSt *client.Stmt
}

func newWireRunner(addr, tenant string) (*wireRunner, error) {
	c, err := client.Dial(addr, tenant, "")
	if err != nil {
		return nil, err
	}
	r := &wireRunner{c: c}
	for _, p := range []struct {
		dst **client.Stmt
		src string
	}{{&r.ins, sqlInsert}, {&r.cnt, sqlCount}, {&r.rowsSt, sqlRows}} {
		if *p.dst, err = c.Prepare(p.src); err != nil {
			c.Close()
			return nil, err
		}
	}
	return r, nil
}

func (r *wireRunner) insert(table string, k, x int64) error {
	_, _, err := r.ins.Exec(client.Table(table), client.Int(k), client.Int(x))
	return err
}

func (r *wireRunner) count(table string) (int64, error) {
	_, rows, err := r.cnt.Query(client.Table(table))
	return singleInt(rows, err)
}

func (r *wireRunner) rows(table string) ([]engine.Row, error) {
	_, rows, err := r.rowsSt.Query(client.Table(table))
	return rows, err
}

func (r *wireRunner) truncate(table string) error {
	_, _, err := r.c.Exec(truncateSQL(table))
	return err
}

func (r *wireRunner) cc(table string, seed uint64) (int64, int64, error) {
	res, err := r.c.ConnectedComponents(table, "", seed)
	if err != nil {
		return 0, 0, err
	}
	return res.Components, res.Vertices, nil
}

type embeddedRunner struct {
	db               *dbcc.DB
	s                *sql.Session
	ins, cnt, rowsSt *sql.Prepared
}

func newEmbeddedRunner(db *dbcc.DB) (*embeddedRunner, error) {
	r := &embeddedRunner{db: db, s: db.SQL()}
	var err error
	for _, p := range []struct {
		dst **sql.Prepared
		src string
	}{{&r.ins, sqlInsert}, {&r.cnt, sqlCount}, {&r.rowsSt, sqlRows}} {
		if *p.dst, err = r.s.Prepare(p.src); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *embeddedRunner) insert(table string, k, x int64) error {
	_, err := r.ins.Exec(sql.Table(table), sql.Int(k), sql.Int(x))
	return err
}

func (r *embeddedRunner) count(table string) (int64, error) {
	_, rows, err := r.cnt.Query(sql.Table(table))
	return singleInt(rows, err)
}

func (r *embeddedRunner) rows(table string) ([]engine.Row, error) {
	_, rows, err := r.rowsSt.Query(sql.Table(table))
	return rows, err
}

func (r *embeddedRunner) truncate(table string) error {
	_, err := r.s.Exec(truncateSQL(table))
	return err
}

func (r *embeddedRunner) cc(table string, seed uint64) (int64, int64, error) {
	res, err := r.db.ConnectedComponentsOf(table, dbcc.Params{Seed: seed, KeepStats: true})
	if err != nil {
		return 0, 0, err
	}
	return int64(res.Labels.NumComponents()), int64(len(res.Labels)), nil
}

func truncateSQL(table string) string {
	return fmt.Sprintf("DELETE FROM %s WHERE x < %d", table, sentinelX)
}

func singleInt(rows []engine.Row, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].Null {
		return 0, fmt.Errorf("want one integer, got %v", rows)
	}
	return rows[0][0].Int, nil
}

// mixModel is what a mix connection checks replies against.
type mixModel struct {
	bigRows    int
	bigSum     int64 // Σ v1+v2 over the streamed table
	components int64 // of the tenant graph, by the Union/Find oracle
	vertices   int64
}

// mixConn is one closed-loop connection: a seeded op stream, the scratch
// table it owns, and the client-side model of that table.
type mixConn struct {
	run     sqlRunner
	rng     *xrand.Rand
	cycle   []opKind // this connection's order of mixCycle
	next    int      // position in cycle
	scratch string
	inserts int64 // rows in scratch besides the sentinel, by the model
	ccSeed  uint64
	model   *mixModel
}

// step executes the next op of the stream and checks its reply. A reply
// that differs from the model is an error like any other.
func (m *mixConn) step() (opKind, time.Duration, error) {
	kind := m.cycle[m.next%len(m.cycle)]
	if m.inserts >= serveTruncate {
		// Bound scratch growth, so count(*) cost stays stationary over the
		// window instead of growing with how far a fast run gets. An extra
		// operation: it does not take a slot of the cycle.
		kind = opTruncate
	} else {
		m.next++
	}
	k, x := int64(m.rng.Uint64n(64)), int64(m.rng.Uint64n(1000))
	var err error
	t0 := time.Now()
	switch kind {
	case opInsert:
		if err = m.run.insert(m.scratch, k, x); err == nil {
			m.inserts++
		}
	case opCount:
		var n int64
		if n, err = m.run.count(m.scratch); err == nil && n != m.inserts+1 {
			err = fmt.Errorf("count(%s) = %d, model has %d", m.scratch, n, m.inserts+1)
		}
	case opRows:
		var rows []engine.Row
		if rows, err = m.run.rows("big"); err == nil {
			var sum int64
			for _, r := range rows {
				sum += r[0].Int + r[1].Int
			}
			if len(rows) != m.model.bigRows || sum != m.model.bigSum {
				err = fmt.Errorf("big: %d rows summing to %d, model has %d and %d", len(rows), sum, m.model.bigRows, m.model.bigSum)
			}
		}
	case opTruncate:
		if err = m.run.truncate(m.scratch); err == nil {
			m.inserts = 0
		}
	case opCC:
		var comps, verts int64
		m.ccSeed++
		if comps, verts, err = m.run.cc(ccTable, m.ccSeed%seedCycle); err == nil &&
			(comps != m.model.components || verts != m.model.vertices) {
			err = fmt.Errorf("cc: %d components over %d vertices, oracle has %d over %d", comps, verts, m.model.components, m.model.vertices)
		}
	}
	return kind, time.Since(t0), err
}

// serveInstance is an in-process ccserverd with its connections open.
type serveInstance struct {
	srv      *server.Server
	serveErr chan error
	g        *graph.Graph
	big      []engine.Row
	model    *mixModel
	seed     uint64
	conns    []*mixConn
	wires    []*wireRunner

	first wire.ServerStats // snapshot before the window's first slice
}

func bigRows(seed uint64) []engine.Row {
	rng := xrand.New(seed)
	rows := make([]engine.Row, serveBigRows)
	for i := range rows {
		rows[i] = engine.Row{engine.I(int64(i)), engine.I(int64(rng.Uint64n(1 << 40)))}
	}
	return rows
}

func setupServe(seed uint64, _ int, tr *tracer, parent int32) (instance, error) {
	t0 := time.Now()
	s := &serveInstance{g: serveGraph(), big: bigRows(seed), seed: seed, serveErr: make(chan error, 1)}
	t1 := time.Now()
	tr.add("datagen.gen", parent, noSpan, t0, t1)

	s.srv = server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := s.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { s.serveErr <- s.srv.Serve() }()
	t2 := time.Now()
	tr.add("server.start", parent, noSpan, t1, t2)

	n := connections()
	scratch := make([][]string, len(serveTenants))
	for i := 0; i < n; i++ {
		t := i % len(serveTenants)
		scratch[t] = append(scratch[t], fmt.Sprintf("scratch%d", i))
	}
	// Tenant catalogs are loaded the way a tenant would: over the wire.
	for t, tenant := range serveTenants {
		if err := s.loadTenant(tenant, scratch[t]); err != nil {
			s.close()
			return nil, err
		}
	}
	tr.add("graph.load", parent, noSpan, t2, time.Now())

	s.model = &mixModel{bigRows: len(s.big)}
	for _, r := range s.big {
		s.model.bigSum += r[0].Int + r[1].Int
	}
	for i := 0; i < n; i++ {
		wr, err := newWireRunner(s.srv.Addr(), serveTenants[i%len(serveTenants)])
		if err != nil {
			s.close()
			return nil, err
		}
		s.wires = append(s.wires, wr)
		s.conns = append(s.conns, s.newConn(i, wr))
	}
	return s, nil
}

func (s *serveInstance) loadTenant(tenant string, scratch []string) error {
	c, err := client.Dial(s.srv.Addr(), tenant, "")
	if err != nil {
		return err
	}
	defer c.Close()
	for _, src := range tenantStatements(s.g, s.big, scratch) {
		if _, _, err := c.Exec(src); err != nil {
			return fmt.Errorf("tenant %s: %w", tenant, err)
		}
	}
	return nil
}

func (s *serveInstance) newConn(i int, run sqlRunner) *mixConn {
	m := &mixConn{run: run, rng: xrand.New(s.seed<<8 + uint64(i)), scratch: fmt.Sprintf("scratch%d", i), model: s.model}
	for _, kind := range []opKind{opInsert, opCount, opRows, opCC} {
		for n := 0; n < mixCycle[kind]; n++ {
			m.cycle = append(m.cycle, kind)
		}
	}
	for i := len(m.cycle) - 1; i > 0; i-- {
		j := int(m.rng.Uint64n(uint64(i + 1)))
		m.cycle[i], m.cycle[j] = m.cycle[j], m.cycle[i]
	}
	return m
}

// sentinelX marks the one row of a scratch table that truncation keeps
// (inserted rows have x < 1000): the engine answers count(*) over an empty
// table with no row at all, and the workload is made of operations that
// succeed.
const sentinelX = 1000000

// insertChunk is how many rows one set-up INSERT statement carries.
const insertChunk = 500

// tenantStatements is the SQL that creates and fills one tenant catalog:
// the CC graph, the table the streaming SELECT reads, and the scratch
// tables of the tenant's connections.
func tenantStatements(g *graph.Graph, big []engine.Row, scratch []string) []string {
	stmts := []string{
		"CREATE TABLE " + ccTable + " (v1, v2) DISTRIBUTED BY (v1)",
		"CREATE TABLE big (v1, v2) DISTRIBUTED BY (v1)",
	}
	for _, t := range scratch {
		stmts = append(stmts, "CREATE TABLE "+t+" (k, x) DISTRIBUTED BY (k)",
			fmt.Sprintf("INSERT INTO %s VALUES (0, %d)", t, sentinelX))
	}
	edges := make([]engine.Row, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = engine.Row{engine.I(e.V), engine.I(e.W)}
	}
	for _, load := range []struct {
		table string
		rows  []engine.Row
	}{{ccTable, edges}, {"big", big}} {
		for off := 0; off < len(load.rows); off += insertChunk {
			b := []byte("INSERT INTO " + load.table + " VALUES ")
			for i, r := range load.rows[off:min(off+insertChunk, len(load.rows))] {
				if i > 0 {
					b = append(b, ',')
				}
				b = fmt.Appendf(b, "(%d,%d)", r[0].Int, r[1].Int)
			}
			stmts = append(stmts, string(b))
		}
	}
	return stmts
}

func (s *serveInstance) input() fingerprint {
	s.ensureOracle()
	return fingerprintOf(int(s.model.components), s.g)
}

func (s *serveInstance) ensureOracle() {
	if s.model.vertices == 0 {
		o := unionfind.Components(s.g)
		s.model.components, s.model.vertices = int64(o.NumComponents()), int64(len(o))
	}
}

func (s *serveInstance) close() error {
	for _, w := range s.wires {
		w.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; err == nil {
		err = serr
	}
	return err
}

// rep runs every connection's closed loop for one slice.
func (s *serveInstance) rep(_ int, w *window, tr *tracer) error {
	s.ensureOracle()
	cl := s.srv.DB().Cluster()
	if w.ops == 0 {
		s.first = s.srv.Stats()
	}
	before := cl.Stats()
	run := tr.newRun()
	type result struct {
		kind  opKind
		start time.Time
		d     time.Duration
		err   error
	}
	results := make([][]result, len(s.conns))
	start := time.Now()
	repSpan := tr.begin("rep", noSpan, run, start)
	d := w.timed(func() {
		deadline := start.Add(serveSlice)
		var wg sync.WaitGroup
		for ci, c := range s.conns {
			wg.Add(1)
			go func(ci int, c *mixConn) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					t0 := time.Now()
					kind, d, err := c.step()
					results[ci] = append(results[ci], result{kind, t0, d, err})
					if err != nil {
						return
					}
				}
			}(ci, c)
		}
		wg.Wait()
	})
	tr.finish(repSpan, start.Add(d))
	after := cl.Stats()

	var ops int
	var firstErr error
	for _, rs := range results {
		for _, r := range rs {
			ops++
			// Spans are added here, after the slice, so that a traced
			// slice does nothing a plain one does not.
			tr.add("client.op", repSpan, run, r.start, r.start.Add(r.d))
			w.sample(kindLatency[r.kind], float64(r.d)/float64(time.Millisecond))
			if r.kind != opCC {
				w.op(r.d, tr != nil)
			}
			var we *wire.WireError
			if r.err != nil && !errors.As(r.err, &we) && firstErr == nil {
				firstErr = r.err // not a server reply: the connection is gone
			}
			w.check(r.err)
		}
	}
	w.ops += ops
	w.count(ops, after.Queries-before.Queries, after.BytesWritten-before.BytesWritten, after.PeakBytes)
	if tr != nil {
		recs := cl.Trace()
		mark := tr.mark()
		tr.addEngineTrace(recs, repSpan, run)
		engineLayers(w, recs, selfSeconds(tr.since(mark)), after.Queries-before.Queries, ops)
	}
	return firstErr
}

func (s *serveInstance) layers(w *window) error {
	last := s.srv.Stats()
	stmts := float64(last.Statements - s.first.Statements)
	var queueNanos int64
	for name, t := range last.Tenants {
		queueNanos += t.QueueNanos - s.first.Tenants[name].QueueNanos
	}
	if stmts > 0 {
		w.once["server.queue_ms_per_stmt"] = float64(queueNanos) / 1e6 / stmts
	}
	w.once["server.peak_queue_depth"] = float64(last.PeakQueueDepth)
	w.once["server.shed"] = float64(last.Shed - s.first.Shed)
	w.once["server.failed"] = float64(last.Failed - s.first.Failed)
	w.once["server.parses"] = float64(last.Parses - s.first.Parses)
	hits := last.PlanCacheHits - s.first.PlanCacheHits
	if lookups := hits + last.PlanCacheMisses - s.first.PlanCacheMisses; lookups > 0 {
		w.once["server.plan_cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	w.once["client.insert_p50_us"] = median(w.samples[kindLatency[opInsert]]) * 1e3
	w.once["client.count_p50_us"] = median(w.samples[kindLatency[opCount]]) * 1e3
	w.once["client.select_rows_p50_us"] = median(w.samples[kindLatency[opRows]]) * 1e3
	w.once["client.cc_p50_ms"] = median(w.samples[kindLatency[opCC]])

	embedded, err := s.replayEmbedded(min(len(w.lat)/len(s.conns), replayOps))
	if err != nil {
		return fmt.Errorf("embedded replay: %w", err)
	}
	w.once["server.overhead_us"] = (meanLatency(w) - embedded) * 1e3
	return wireProbes(w, s.big)
}

// replayOps caps the SQL statements the embedded replay executes (the CC
// runs interleaved in the stream make a full replay take seconds).
const replayOps = 4000

// replayEmbedded runs connection 0's op stream from its start through an
// embedded session on a fresh database holding the same tables, and
// returns its meanLatency in ms: what the statements cost
// without the wire, admission control and result encoding.
func (s *serveInstance) replayEmbedded(ops int) (float64, error) {
	db := dbcc.Open(dbcc.Config{})
	defer db.Close()
	sess := db.SQL()
	for _, src := range tenantStatements(s.g, s.big, []string{"scratch0"}) {
		if _, err := sess.Exec(src); err != nil {
			return 0, err
		}
	}
	run, err := newEmbeddedRunner(db)
	if err != nil {
		return 0, err
	}
	c := s.newConn(0, run)
	replayed := newWindow(0)
	for n := 0; n < ops; {
		kind, d, err := c.step()
		if err != nil {
			return 0, err
		}
		if kind != opCC {
			replayed.op(d, false)
			n++
		}
	}
	return meanLatency(replayed), nil
}
