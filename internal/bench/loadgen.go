package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"dbcc/internal/client"
	"dbcc/internal/wire"
)

// LoadgenConfig drives mixed SQL + connected-components traffic at a
// running ccserverd over the wire protocol — the server-soak workload.
// Connections are spread round-robin across Tenants tenant catalogs, so
// the run exercises both the shared worker pool and the per-tenant
// admission gates.
type LoadgenConfig struct {
	Addr        string        // ccserverd address
	Connections int           // concurrent client connections (default 8)
	Tenants     int           // tenant catalogs to spread connections over (default 2)
	Duration    time.Duration // measurement window (default 10s)
	Seed        uint64        // workload seed (op mix and edge values)
	AuthToken   string        // shared secret, if the server requires one
	SetupEdges  int           // edges loaded into each tenant's graph (default 400)
	CCEvery     int           // every CCEvery-th op is a connected-components run (default 8)
	// Stream switches the op mix to the incremental-maintenance workload:
	// each tenant's edges table carries a component index, connections
	// stream prepared INSERTs (bounded relabel work per statement) with
	// periodic DELETEs that trigger index rebuilds, and Watchers live
	// subscriptions consume the Notify fan-out, each asserting gap-free
	// sequence numbers.
	Stream bool
	// Watchers is how many Watch subscriptions stay open for the whole
	// run (stream mode; spread round-robin over tenants; default 4).
	Watchers int
	// DeleteEvery makes every DeleteEvery-th op of a streaming connection
	// a DELETE statement — the rebuild trigger (default 192).
	DeleteEvery int
}

// LoadgenResult is one load-generator run: client-observed latency
// percentiles over the whole op mix plus the server's own admission
// accounting at the end of the run. The CI server-soak lane asserts
// failed == shed == 0 and a warm plan-cache hit rate.
type LoadgenResult struct {
	Addr         string
	Connections  int
	Tenants      int
	DurationSecs float64

	Ops    int64 // completed operations across all connections
	SQLOps int64 // Exec/Query operations
	CCOps  int64 // connected-components runs
	Failed int64 // operations that returned a non-admission error
	Shed   int64 // 429-style admission rejections observed by clients

	P50Millis float64
	P95Millis float64
	P99Millis float64
	MaxMillis float64

	// Final server snapshot, taken after every connection finished. The
	// statement, failure and shed counts are deltas over the measurement
	// window, so tenant setup against a reused server (whose CREATE of an
	// existing table fails by design) does not count against the run.
	ServerStatements int64
	ServerFailed     int64
	ServerShed       int64
	PeakQueueDepth   int64
	QueueMillis      float64 // total admission-queue wait across tenants

	// Plan-cache accounting over the measurement window (deltas between
	// the pre- and post-run server snapshots, so setup traffic and earlier
	// runs against the same server don't dilute the rate).
	ServerPrepared   int64 // Prepare frames served, lifetime
	Parses           int64 // statements parsed in the window
	PlanCacheHits    int64 // window delta
	PlanCacheMisses  int64 // window delta
	PlanCacheHitRate float64

	// Streaming results (populated in stream mode). Insert percentiles
	// cover INSERT statements only — the latency the bounded
	// incremental-maintenance invariant protects; RelabelsPerInsert is the
	// window's IndexLabelsTouched delta per insert statement, the
	// bounded-work witness. SeqGaps must be zero: every watcher checks its
	// Notify stream for gap-free monotonic sequence numbers.
	Stream            bool
	Watchers          int
	InsertOps         int64
	DeleteOps         int64
	InsertP50Millis   float64
	InsertP95Millis   float64
	InsertP99Millis   float64
	RelabelsPerInsert float64
	IndexMerges       int64 // window delta
	IndexRebuilds     int64 // window delta
	Notifies          int64 // window delta
	WatchEvents       int64 // events seen by this run's watchers
	SeqGaps           int64 // watcher-observed sequence gaps (must be 0)
}

func (cfg *LoadgenConfig) defaults() {
	if cfg.Connections <= 0 {
		cfg.Connections = 8
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 2
	}
	if cfg.Tenants > cfg.Connections {
		cfg.Tenants = cfg.Connections
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.SetupEdges <= 0 {
		cfg.SetupEdges = 400
	}
	if cfg.CCEvery <= 0 {
		cfg.CCEvery = 8
	}
	if cfg.Stream && cfg.Watchers <= 0 {
		cfg.Watchers = 4
	}
	if cfg.DeleteEvery <= 0 {
		cfg.DeleteEvery = 192
	}
}

// loadgenTenant names tenant i of a run.
func loadgenTenant(i int) string { return fmt.Sprintf("soak%d", i) }

// createFresh creates an empty table, replacing a leftover from an earlier
// run against the same server. CREATE is tried first so a fresh server —
// the CI soak lane, which asserts a zero server-side failure count — sees
// no failing statements at all; only the reuse path pays a DROP.
func createFresh(c *client.Client, name, createStmt string) error {
	if _, _, err := c.Exec(createStmt); err == nil {
		return nil
	}
	if _, _, err := c.Exec("DROP TABLE " + name); err != nil {
		return err
	}
	_, _, err := c.Exec(createStmt)
	return err
}

// setupTenant creates and fills one tenant's edges table: a ring per
// expected component plus seeded chords, so connected-components runs have
// real (and deterministic, per seed) work to do.
func setupTenant(cfg *LoadgenConfig, tenant string, seed uint64) error {
	c, err := client.Dial(cfg.Addr, tenant, cfg.AuthToken)
	if err != nil {
		return fmt.Errorf("loadgen: setup dial %s: %w", tenant, err)
	}
	defer c.Close()
	if err := createFresh(c, "edges", "CREATE TABLE edges (v1, v2) DISTRIBUTED BY (v1)"); err != nil {
		return fmt.Errorf("loadgen: setup %s: %w", tenant, err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int64(cfg.SetupEdges) // ring of SetupEdges vertices => one giant component
	var b strings.Builder
	for i := int64(0); i < n; i++ {
		v, w := i, (i+1)%n
		if rng.Intn(8) == 0 { // chord: reconnects inside the ring, keeps one component
			w = rng.Int63n(n)
		}
		if b.Len() == 0 {
			b.WriteString("INSERT INTO edges VALUES ")
		} else {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d)", v, w)
		if (i+1)%100 == 0 || i == n-1 {
			if _, _, err := c.Exec(b.String()); err != nil {
				return fmt.Errorf("loadgen: setup %s: %w", tenant, err)
			}
			b.Reset()
		}
	}
	if cfg.Stream {
		// Index after the bulk load: the scan-at-create path registers the
		// existing edges, then the streamed inserts maintain incrementally.
		// createFresh always leaves a fresh table, so no stale index can
		// survive from an earlier run.
		if _, _, err := c.Exec("CREATE COMPONENT INDEX ON edges"); err != nil {
			return fmt.Errorf("loadgen: setup index %s: %w", tenant, err)
		}
	}
	return nil
}

// connStats is one connection's tally, merged after the run.
type connStats struct {
	ops, sqlOps, ccOps, failed, shed int64
	inserts, deletes                 int64
	latencies                        []time.Duration
	insertLatencies                  []time.Duration
}

// note classifies one operation's outcome, the single classification
// every op kind — SQL, CC, and the streaming inserts/deletes — funnels
// through: success, admission shed (429: the server protecting itself;
// the op never ran), or failure. Keeping the streaming ops on this path
// is what keeps -require-zero-shed meaningful for stream soaks.
func (st *connStats) note(err error, start time.Time, kind byte) {
	switch {
	case err == nil:
		st.ops++
		el := time.Since(start)
		st.latencies = append(st.latencies, el)
		switch kind {
		case 'c':
			st.ccOps++
		case 'i':
			st.sqlOps++
			st.inserts++
			st.insertLatencies = append(st.insertLatencies, el)
		case 'd':
			st.sqlOps++
			st.deletes++
		default:
			st.sqlOps++
		}
	case client.IsOverloaded(err):
		st.shed++
		time.Sleep(5 * time.Millisecond) // back off as a real client would
	default:
		st.failed++
	}
}

// runConn drives one connection's op mix until deadline: SELECTs and
// INSERTs against the tenant catalog with a connected-components run every
// CCEvery-th op. Admission rejections (429) count as shed, not failures;
// the scratch table is dropped and recreated periodically so the workload
// doesn't slow down over long soaks.
func runConn(cfg *LoadgenConfig, id int, deadline time.Time, st *connStats) error {
	tenant := loadgenTenant(id % cfg.Tenants)
	c, err := client.Dial(cfg.Addr, tenant, cfg.AuthToken)
	if err != nil {
		return fmt.Errorf("loadgen: conn %d dial: %w", id, err)
	}
	defer c.Close()
	if cfg.Stream {
		return runStreamConn(cfg, c, id, deadline, st)
	}
	scratch := fmt.Sprintf("scratch_%d", id)
	if err := createFresh(c, scratch, fmt.Sprintf("CREATE TABLE %s (k, x) DISTRIBUTED BY (k)", scratch)); err != nil {
		return fmt.Errorf("loadgen: conn %d scratch: %w", id, err)
	}
	// The prepared path parses each op shape exactly once per connection.
	// The two count shapes carry distinct aliases on purpose: the plan
	// cache keys table-parameterised statements by normalized text alone
	// and validates the bound table's schema on every hit, so one shape
	// alternating between edges (v1, v2) and scratch (k, x) would fail
	// validation — and replan — every other execution.
	var insStmt, qEdges, qScratch *client.Stmt
	for _, p := range []struct {
		dst **client.Stmt
		src string
	}{
		{&insStmt, "INSERT INTO $1 VALUES ($2,$3),($4,$5)"},
		{&qEdges, "SELECT count(*) AS n FROM $1 AS e"},
		{&qScratch, "SELECT count(*) AS n FROM $1 AS s"},
	} {
		if *p.dst, err = c.Prepare(p.src); err != nil {
			return fmt.Errorf("loadgen: conn %d prepare: %w", id, err)
		}
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(id)*7919))
	for op := 0; time.Now().Before(deadline); op++ {
		start := time.Now()
		var err error
		cc := op%cfg.CCEvery == cfg.CCEvery-1
		if cc {
			_, err = c.ConnectedComponents("edges", "", cfg.Seed+uint64(op))
		} else {
			switch op % 3 {
			case 0:
				_, _, err = insStmt.Exec(client.Table(scratch),
					client.Int(int64(rng.Intn(64))), client.Int(int64(rng.Intn(1000))),
					client.Int(int64(rng.Intn(64))), client.Int(int64(rng.Intn(1000))))
			case 1:
				_, _, err = qEdges.Query(client.Table("edges"))
			default:
				_, _, err = qScratch.Query(client.Table(scratch))
			}
		}
		kind := byte('q')
		if cc {
			kind = 'c'
		}
		st.note(err, start, kind)
		if op > 0 && op%256 == 0 {
			// Bound scratch growth so op latency stays flat over the soak.
			// An admission rejection here is a shed like any other op —
			// the statement never ran, the scratch table is untouched.
			switch _, _, err := c.Exec(fmt.Sprintf("DROP TABLE %s; CREATE TABLE %s (k, x) DISTRIBUTED BY (k)", scratch, scratch)); {
			case err == nil:
			case client.IsOverloaded(err):
				st.shed++
				time.Sleep(5 * time.Millisecond)
			default:
				st.failed++
			}
		}
	}
	return nil
}

// runStreamConn drives one connection's streaming op mix until deadline:
// mostly prepared INSERTs into the tenant's indexed edges table (the
// bounded-relabel insert path), a count SELECT every 4th op, and every
// DeleteEvery-th op a DELETE that exercises the rebuild trigger.
func runStreamConn(cfg *LoadgenConfig, c *client.Client, id int, deadline time.Time, st *connStats) error {
	insStmt, err := c.Prepare("INSERT INTO $1 VALUES ($2,$3),($4,$5)")
	if err != nil {
		return fmt.Errorf("loadgen: conn %d prepare insert: %w", id, err)
	}
	cntStmt, err := c.Prepare("SELECT count(*) AS n FROM $1 AS e")
	if err != nil {
		return fmt.Errorf("loadgen: conn %d prepare count: %w", id, err)
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(id)*7919))
	// Inserts draw vertices from twice the setup span, so the stream both
	// grows components with new vertices and merges existing ones.
	span := int64(cfg.SetupEdges) * 2
	for op := 0; time.Now().Before(deadline); op++ {
		start := time.Now()
		var err error
		var kind byte
		switch {
		case op%cfg.DeleteEvery == cfg.DeleteEvery-1:
			kind = 'd'
			_, _, err = c.Exec(fmt.Sprintf("DELETE FROM edges WHERE v1 = %d", rng.Int63n(span)))
		case op%4 == 3:
			kind = 'q'
			_, _, err = cntStmt.Query(client.Table("edges"))
		default:
			kind = 'i'
			a, b := rng.Int63n(span), rng.Int63n(span)
			x, y := rng.Int63n(span), rng.Int63n(span)
			_, _, err = insStmt.Exec(client.Table("edges"),
				client.Int(a), client.Int(b), client.Int(x), client.Int(y))
		}
		st.note(err, start, kind)
	}
	return nil
}

// watchStats is one watcher's tally.
type watchStats struct {
	events, gaps, shed int64
}

// runWatcher holds one Watch subscription open until deadline, counting
// events and asserting the delivery contract: strictly gap-free
// monotonic sequence numbers. An admission rejection at subscribe time
// is a shed (the 429 classification of satellite ops), retried after
// backoff like any shed statement.
func runWatcher(cfg *LoadgenConfig, id int, deadline time.Time, ws *watchStats) error {
	tenant := loadgenTenant(id % cfg.Tenants)
	var w *client.Watch
	var c *client.Client
	for {
		var err error
		c, err = client.Dial(cfg.Addr, tenant, cfg.AuthToken)
		if err != nil {
			return fmt.Errorf("loadgen: watcher %d dial: %w", id, err)
		}
		w, err = c.Subscribe("edges")
		if err == nil {
			break
		}
		c.Close()
		if client.IsOverloaded(err) && time.Now().Before(deadline) {
			ws.shed++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		return fmt.Errorf("loadgen: watcher %d subscribe: %w", id, err)
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	seq := w.StartSeq()
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				// Server-side disconnect mid-run (drain or overflow) would
				// lose events; surface it as a failure of the soak.
				return fmt.Errorf("loadgen: watcher %d stream closed: %v", id, w.Err())
			}
			ws.events++
			if ev.Seq != seq+1 {
				ws.gaps++
			}
			seq = ev.Seq
		case <-timer.C:
			c.Close()
			for range w.Events() { // release the pump goroutine
			}
			return nil
		}
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// durations in milliseconds: the ⌈p·n⌉-th smallest value. The product is
// shrunk by a relative 1e-9 before rounding up so that float error in an
// integral p·n (0.07·100 = 7.000000000000001) does not skip a rank.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted))*(1-1e-9))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

// RunLoadgen loads each tenant's graph, drives Connections concurrent
// clients against the server for Duration, and reports client-observed
// latency percentiles together with the server's final admission stats.
// Operation errors are counted (failed/shed), not returned; the error
// return covers setup and the final stats fetch only.
func RunLoadgen(cfg LoadgenConfig, progress func(string)) (*LoadgenResult, error) {
	cfg.defaults()
	for i := 0; i < cfg.Tenants; i++ {
		if err := setupTenant(&cfg, loadgenTenant(i), cfg.Seed+uint64(i)); err != nil {
			return nil, err
		}
	}
	if progress != nil {
		progress(fmt.Sprintf("loadgen: %d connections over %d tenants for %s", cfg.Connections, cfg.Tenants, cfg.Duration))
	}

	// Pre-run snapshot: the hit rate is computed over the measurement
	// window only, so setup inserts and prior runs don't dilute it.
	before, err := fetchServerStats(&cfg)
	if err != nil {
		return nil, err
	}

	deadline := time.Now().Add(cfg.Duration)
	stats := make([]connStats, cfg.Connections)
	errs := make([]error, cfg.Connections)
	watchers := 0
	if cfg.Stream {
		watchers = cfg.Watchers
	}
	wstats := make([]watchStats, watchers)
	werrs := make([]error, watchers)
	var wg sync.WaitGroup
	for i := 0; i < watchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = runWatcher(&cfg, i, deadline, &wstats[i])
		}(i)
	}
	for i := 0; i < cfg.Connections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runConn(&cfg, i, deadline, &stats[i])
		}(i)
	}
	wg.Wait()
	for _, err := range append(errs, werrs...) {
		if err != nil {
			return nil, err
		}
	}

	out := &LoadgenResult{
		Addr:         cfg.Addr,
		Connections:  cfg.Connections,
		Tenants:      cfg.Tenants,
		DurationSecs: cfg.Duration.Seconds(),
	}
	var all, inserts []time.Duration
	for i := range stats {
		out.Ops += stats[i].ops
		out.SQLOps += stats[i].sqlOps
		out.CCOps += stats[i].ccOps
		out.Failed += stats[i].failed
		out.Shed += stats[i].shed
		out.InsertOps += stats[i].inserts
		out.DeleteOps += stats[i].deletes
		all = append(all, stats[i].latencies...)
		inserts = append(inserts, stats[i].insertLatencies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out.P50Millis = percentile(all, 0.50)
	out.P95Millis = percentile(all, 0.95)
	out.P99Millis = percentile(all, 0.99)
	out.MaxMillis = percentile(all, 1)
	if cfg.Stream {
		out.Stream = true
		out.Watchers = cfg.Watchers
		sort.Slice(inserts, func(i, j int) bool { return inserts[i] < inserts[j] })
		out.InsertP50Millis = percentile(inserts, 0.50)
		out.InsertP95Millis = percentile(inserts, 0.95)
		out.InsertP99Millis = percentile(inserts, 0.99)
		for i := range wstats {
			out.WatchEvents += wstats[i].events
			out.SeqGaps += wstats[i].gaps
			out.Shed += wstats[i].shed
		}
	}

	st, err := fetchServerStats(&cfg)
	if err != nil {
		return nil, err
	}
	out.ServerStatements = st.Statements - before.Statements
	out.ServerFailed = st.Failed - before.Failed
	out.ServerShed = st.Shed - before.Shed
	out.PeakQueueDepth = st.PeakQueueDepth
	var queueNanos int64
	for _, ts := range st.Tenants {
		queueNanos += ts.QueueNanos
	}
	out.QueueMillis = float64(queueNanos) / float64(time.Millisecond)

	out.ServerPrepared = st.Prepared
	out.Parses = st.Parses - before.Parses
	out.PlanCacheHits = st.PlanCacheHits - before.PlanCacheHits
	out.PlanCacheMisses = st.PlanCacheMisses - before.PlanCacheMisses
	if looked := out.PlanCacheHits + out.PlanCacheMisses; looked > 0 {
		out.PlanCacheHitRate = float64(out.PlanCacheHits) / float64(looked)
	}
	if cfg.Stream {
		out.IndexMerges = st.IndexMerges - before.IndexMerges
		out.IndexRebuilds = st.IndexRebuilds - before.IndexRebuilds
		out.Notifies = st.Notifies - before.Notifies
		if out.InsertOps > 0 {
			out.RelabelsPerInsert = float64(st.IndexLabelsTouched-before.IndexLabelsTouched) / float64(out.InsertOps)
		}
	}
	return out, nil
}

// fetchServerStats dials the server for one stats snapshot.
func fetchServerStats(cfg *LoadgenConfig) (*wire.ServerStats, error) {
	c, err := client.Dial(cfg.Addr, loadgenTenant(0), cfg.AuthToken)
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats dial: %w", err)
	}
	defer c.Close()
	st, err := c.ServerStats()
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats: %w", err)
	}
	return st, nil
}
