package server_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbcc"
	"dbcc/internal/client"
	"dbcc/internal/datagen"
	"dbcc/internal/server"
	"dbcc/internal/wire"
)

// startServer boots a server on a free loopback port and returns it with
// a cleanup that drains it unless the test already did.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(cfg)
	if err := srv.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // "already draining" from a test's own drain is fine
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

func dial(t *testing.T, srv *server.Server, tenant string) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr(), tenant, "")
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// loadEdges creates table name in the connection's tenant catalog and
// inserts the edges of a path graph over the wire.
func loadEdges(t *testing.T, c *client.Client, name string, n int) {
	t.Helper()
	if _, _, err := c.Exec(fmt.Sprintf("CREATE TABLE %s (v1, v2) DISTRIBUTED BY (v1)", name)); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	const batch = 200
	for lo := 0; lo < n; lo += batch {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", name)
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", i, i+1)
		}
		if _, _, err := c.Exec(b.String()); err != nil {
			t.Fatalf("insert into %s: %v", name, err)
		}
	}
}

func TestServerExecQueryCC(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 4}})
	c := dial(t, srv, "acme")

	loadEdges(t, c, "edges", 100) // path 0-1-...-100: one component
	schema, rows, err := c.Query("SELECT count(*) AS n, min(v1) AS lo, max(v2) AS hi FROM edges")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(schema) != 3 || schema[0] != "n" {
		t.Fatalf("schema: %v", schema)
	}
	if len(rows) != 1 || rows[0][0].Int != 100 || rows[0][1].Int != 0 || rows[0][2].Int != 100 {
		t.Fatalf("rows: %v", rows)
	}

	res, err := c.ConnectedComponents("edges", "rc", 2019)
	if err != nil {
		t.Fatalf("cc: %v", err)
	}
	if res.Components != 1 || res.Vertices != 101 {
		t.Fatalf("cc result: %+v", res)
	}
	if res.Rounds < 1 {
		t.Fatalf("cc rounds: %+v", res)
	}

	// A streamed result wider than one chunk (512 rows) reassembles intact.
	_, all, err := c.Query("SELECT v1, v2 FROM edges")
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if len(all) != 100 {
		t.Fatalf("full scan returned %d rows", len(all))
	}

	st, err := c.ServerStats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Statements == 0 || st.Conns < 1 || st.Tenants["acme"].Admitted == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Shed != 0 || st.Failed != 0 {
		t.Fatalf("unexpected shed/failed: %+v", st)
	}
}

func TestTenantCatalogIsolation(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 4}})
	a := dial(t, srv, "tenanta")
	b := dial(t, srv, "tenantb")

	loadEdges(t, a, "edges", 30)
	loadEdges(t, b, "edges", 10)

	_, arows, err := a.Query("SELECT count(*) AS n FROM edges")
	if err != nil {
		t.Fatalf("a query: %v", err)
	}
	_, brows, err := b.Query("SELECT count(*) AS n FROM edges")
	if err != nil {
		t.Fatalf("b query: %v", err)
	}
	if arows[0][0].Int != 30 || brows[0][0].Int != 10 {
		t.Fatalf("tenant tables bled: a=%d b=%d", arows[0][0].Int, brows[0][0].Int)
	}

	// Naming another tenant's physical table must not resolve.
	if _, _, err := b.Query("SELECT count(*) AS n FROM tn_tenanta_edges"); err == nil {
		t.Fatal("cross-tenant SELECT resolved")
	}
	if _, err := b.ConnectedComponents("tn_tenanta_edges", "rc", 1); err == nil {
		t.Fatal("cross-tenant CC resolved")
	}

	// Shared global tables stay reachable from any tenant.
	if err := srv.DB().LoadGraph("shared_input", dbcc.GeneratePath(20)); err != nil {
		t.Fatalf("load shared: %v", err)
	}
	res, err := b.ConnectedComponents("shared_input", "", 7)
	if err != nil {
		t.Fatalf("cc on shared table: %v", err)
	}
	if res.Components != 1 {
		t.Fatalf("shared cc: %+v", res)
	}
}

func TestAuthAndHandshakeErrors(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 2}, AuthToken: "hunter2"})

	if _, err := client.Dial(srv.Addr(), "acme", "wrong"); err == nil {
		t.Fatal("bad token accepted")
	} else {
		var we *wire.WireError
		if !errors.As(err, &we) || we.Code != wire.CodeAuth {
			t.Fatalf("bad token error: %v", err)
		}
	}
	if _, err := client.Dial(srv.Addr(), "no spaces allowed", "hunter2"); err == nil {
		t.Fatal("invalid tenant name accepted")
	}
	// Underscores are rejected: tenant "acme_x" would make tenant
	// "acme"'s namespace a prefix of its own, letting "acme" reach its
	// tables by naming "x_<table>".
	if _, err := client.Dial(srv.Addr(), "acme_x", "hunter2"); err == nil {
		t.Fatal("underscored tenant name accepted")
	}
	c, err := client.Dial(srv.Addr(), "acme", "hunter2")
	if err != nil {
		t.Fatalf("good token rejected: %v", err)
	}
	c.Close()
}

func TestStatementErrors(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 2}})
	c := dial(t, srv, "acme")

	var we *wire.WireError
	if _, _, err := c.Exec("THIS IS NOT SQL"); !errors.As(err, &we) || we.Code != wire.CodeParse {
		t.Fatalf("parse error: %v", err)
	}
	if _, _, err := c.Query("SELECT v1 FROM missing"); err == nil {
		t.Fatal("query on missing table succeeded")
	}
	// A CC run is a Query of CONNECTED COMPONENTS OF and fails like one:
	// a missing table and an unknown algorithm are execution errors.
	if _, err := c.ConnectedComponents("missing", "rc", 1); !errors.As(err, &we) || we.Code != wire.CodeInternal {
		t.Fatalf("cc on missing table: %v, want code %d", err, wire.CodeInternal)
	}
	loadEdges(t, c, "edges", 5)
	if _, err := c.ConnectedComponents("edges", "nope", 1); !errors.As(err, &we) || we.Code != wire.CodeInternal {
		t.Fatalf("cc with unknown algorithm: %v, want code %d", err, wire.CodeInternal)
	}
	// The connection survives statement errors.
	if _, _, err := c.Exec("CREATE TABLE ok (a, b)"); err != nil {
		t.Fatalf("exec after errors: %v", err)
	}
}

// TestStatementTextErrorsAre400 pins the client-error classification of
// text statements, made by the SQL layer's one parse: malformed and empty
// text and a Query of a statement that is not one SELECT answer 400,
// while an execution failure of well-formed text answers 500.
func TestStatementTextErrorsAre400(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 2}})
	c := dial(t, srv, "acme")
	if _, _, err := c.Exec("CREATE TABLE e (v1, v2)"); err != nil {
		t.Fatal(err)
	}
	code := func(err error) uint16 {
		var we *wire.WireError
		if !errors.As(err, &we) {
			t.Fatalf("not a wire error: %v", err)
		}
		return we.Code
	}
	for _, src := range []string{"SELECT v1 FROM", "SELECT @ FROM e", "", " ; ;"} {
		if _, _, err := c.Exec(src); code(err) != wire.CodeParse {
			t.Errorf("Exec(%q): %v, want code %d", src, err, wire.CodeParse)
		}
		if _, _, err := c.Query(src); code(err) != wire.CodeParse {
			t.Errorf("Query(%q): %v, want code %d", src, err, wire.CodeParse)
		}
	}
	for _, src := range []string{"CREATE TABLE f (a)", "INSERT INTO e VALUES (1, 2)",
		"SELECT v1 FROM e; SELECT v2 FROM e", "CREATE TABLE g AS SELECT v1 FROM e"} {
		if _, _, err := c.Query(src); code(err) != wire.CodeParse {
			t.Errorf("Query(%q): %v, want code %d", src, err, wire.CodeParse)
		}
	}
	// A CTAS whose template the plan cache holds is refused the same way.
	if _, _, err := c.Exec("CREATE TABLE h AS SELECT v1 FROM e"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("CREATE TABLE h AS SELECT v1 FROM e"); code(err) != wire.CodeParse {
		t.Errorf("Query of a cached CTAS: %v, want code %d", err, wire.CodeParse)
	}
	if _, _, err := c.Query("SELECT v1 FROM missing"); code(err) != wire.CodeInternal {
		t.Errorf("query on a missing table: %v, want code %d", err, wire.CodeInternal)
	}
	if _, _, err := c.Query("SELECT v1 FROM e"); err != nil {
		t.Errorf("the connection did not survive the errors: %v", err)
	}
}

// slowCC starts a connected-components run that takes long enough to
// still be in flight when the test acts, and reports its completion.
func slowCC(t *testing.T, srv *server.Server, c *client.Client) chan error {
	t.Helper()
	if err := srv.DB().LoadGraph("big_input", dbcc.GenerateBitcoin(4000, 7)); err != nil {
		t.Fatalf("load big graph: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.ConnectedComponents("big_input", "hm", 1)
		done <- err
	}()
	// Wait until the run is issuing queries so it is genuinely in flight.
	for i := 0; srv.DB().Cluster().Stats().Queries < 3; i++ {
		if i > 2000 {
			t.Error("cc run never started issuing queries")
			return done
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func TestDrainFinishesInflightAndRejectsNew(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 4}})
	busy := dial(t, srv, "acme")
	other := dial(t, srv, "acme")

	ccDone := slowCC(t, srv, busy)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Drain has begun once stats report it; the in-flight CC holds it open.
	for i := 0; !srv.Stats().Draining; i++ {
		if i > 2000 {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// A statement arriving mid-drain is rejected with 503.
	_, _, err := other.Exec("CREATE TABLE late (a, b)")
	if !client.IsUnavailable(err) {
		t.Fatalf("mid-drain statement: %v, want 503 unavailable", err)
	}

	// The in-flight run still completes cleanly.
	if err := <-ccDone; err != nil {
		t.Fatalf("in-flight cc failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrainCancelsInflightCC pins the code of a CC run that a forced
// drain cancels: 503, like any cancelled statement.
func TestDrainCancelsInflightCC(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 4}})
	ccDone := slowCC(t, srv, dial(t, srv, "acme"))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain: %v, want the deadline", err)
	}
	var we *wire.WireError
	if err := <-ccDone; !errors.As(err, &we) || we.Code != wire.CodeUnavailable {
		t.Fatalf("cancelled cc: %v, want code %d", err, wire.CodeUnavailable)
	}
}

// waitNoExtraGoroutines mirrors the engine chaos suite's no-leak bound:
// after a drain, the goroutine count must return to the pre-server
// baseline.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running (baseline %d):\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDrainLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: dbcc.Config{Segments: 4}})
	if err := srv.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	// A few tenants do real work, then the server drains.
	for i := 0; i < 3; i++ {
		c, err := client.Dial(srv.Addr(), fmt.Sprintf("t%d", i), "")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		loadEdges(t, c, "edges", 50)
		if _, err := c.ConnectedComponents("edges", "rc", uint64(i)); err != nil {
			t.Fatalf("cc: %v", err)
		}
		c.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	waitNoExtraGoroutines(t, base)
}

// TestDrainLeavesNoSpillFiles is the server-path spill contract: a
// server whose sessions spilled holds no spill file once their statements
// finish, and still none after it drains.
func TestDrainLeavesNoSpillFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	srv := startServer(t, server.Config{
		// The spill suite's squeeze: 4 KiB budget over 4 segments = 1 KiB
		// per task share, so a 2000-row group-by must spill partitions.
		DB: dbcc.Config{Segments: 4, MemoryBudget: 4 << 10},
	})
	c := dial(t, srv, "acme")

	// Load a table with enough duplicate keys to build real hash state.
	g := datagen.RMAT(11, 2000, 0.57, 0.19, 0.19, 0.05, 11)
	if _, _, err := c.Exec("CREATE TABLE t (k, x) DISTRIBUTED BY (k)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	var b strings.Builder
	n := 0
	for _, e := range g.Edges {
		if b.Len() == 0 {
			b.WriteString("INSERT INTO t VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", e.V%256, e.W)
		n++
		if n%200 == 0 {
			if _, _, err := c.Exec(b.String()); err != nil {
				t.Fatalf("insert: %v", err)
			}
			b.Reset()
		}
	}
	if b.Len() > 0 {
		if _, _, err := c.Exec(b.String()); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if _, _, err := c.Exec("CREATE TABLE agg AS SELECT k, min(x) AS m, max(x) AS h FROM t GROUP BY k"); err != nil {
		t.Fatalf("group-by: %v", err)
	}

	cl := srv.DB().Cluster()
	if cl.Stats().SpilledBytes == 0 {
		t.Fatal("workload did not spill; the test no longer exercises the spill path")
	}
	assertNoSpillFiles(t, tmp, "before drain")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	assertNoSpillFiles(t, tmp, "after drain")
}

// assertNoSpillFiles fails the test if any descriptor of this process
// still refers to a spill file (an unlinked one reads ".../dbcc-spill-N
// (deleted)" under /proc/self/fd) or if tmp, the test's TMPDIR, holds any
// entry.
func assertNoSpillFiles(t *testing.T, tmp, when string) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("listing open descriptors: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.Contains(target, "dbcc-spill-") {
			t.Fatalf("%s: spill file %s still open", when, target)
		}
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Fatalf("%s: TMPDIR holds %d entries (%v)", when, len(ents), err)
	}
}

// TestSubscribeStreamsNotifies is the wire-level watch contract: a
// dedicated connection subscribes to an indexed table, another tenant
// connection streams inserts and a delete, and the watcher sees merge
// events with gap-free sequence numbers followed by a rebuild event.
func TestSubscribeStreamsNotifies(t *testing.T) {
	srv := startServer(t, server.Config{DB: dbcc.Config{Segments: 4}})
	writer := dial(t, srv, "acme")
	if _, _, err := writer.Exec("CREATE TABLE edges (v1, v2); CREATE COMPONENT INDEX ON edges"); err != nil {
		t.Fatalf("create index: %v", err)
	}

	// Subscribing to an unindexed table is a 404.
	if _, err := dial(t, srv, "acme").Subscribe("nosuch"); err == nil {
		t.Fatal("subscribe to unindexed table succeeded")
	}

	w, err := dial(t, srv, "acme").Subscribe("edges")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer w.Close()

	if _, _, err := writer.Exec("INSERT INTO edges VALUES (1,2), (3,4), (2,3)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, _, err := writer.Exec("DELETE FROM edges WHERE v1 = 2"); err != nil {
		t.Fatalf("delete: %v", err)
	}

	seq := w.StartSeq()
	var merges, rebuilds int
	deadline := time.After(10 * time.Second)
	for rebuilds == 0 {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch closed early: %v", w.Err())
			}
			if ev.Seq != seq+1 {
				t.Fatalf("sequence gap: %d after %d", ev.Seq, seq)
			}
			seq = ev.Seq
			if ev.Rebuild {
				rebuilds++
			} else {
				merges++
			}
		case <-deadline:
			t.Fatalf("no rebuild event after %d merges", merges)
		}
	}
	if merges != 3 {
		t.Fatalf("saw %d merge events, want 3", merges)
	}

	// The server counts a Notify after writing it, so the last increment
	// can trail the event this goroutine already received.
	statsDeadline := time.Now().Add(10 * time.Second)
	st, err := writer.ServerStats()
	for err == nil && st.Notifies < 4 && time.Now().Before(statsDeadline) {
		time.Sleep(time.Millisecond)
		st, err = writer.ServerStats()
	}
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Watchers != 1 || st.WatchersTotal != 1 || st.Notifies < 4 {
		t.Fatalf("watch counters: watchers=%d total=%d notifies=%d", st.Watchers, st.WatchersTotal, st.Notifies)
	}
	if st.IndexMerges < 3 || st.IndexRebuilds < 1 || st.IndexLabelsTouched == 0 {
		t.Fatalf("index counters: %+v", st)
	}

	// Tenants are isolated: tenant "other" cannot watch acme's index.
	if _, err := dial(t, srv, "other").Subscribe("edges"); err == nil {
		t.Fatal("cross-tenant subscribe succeeded")
	}
}

// TestDrainWithLiveWatchers is the drain-while-subscribed contract
// (extending TestDrainLeavesNoGoroutines): SIGTERM-style Shutdown with
// live Watch subscriptions must deliver each watcher a terminal 503
// frame and leave no goroutines behind.
func TestDrainWithLiveWatchers(t *testing.T) {
	base := runtime.NumGoroutine()

	srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: dbcc.Config{Segments: 4}})
	if err := srv.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	writer, err := client.Dial(srv.Addr(), "acme", "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, _, err := writer.Exec("CREATE TABLE edges (v1, v2); CREATE COMPONENT INDEX ON edges; INSERT INTO edges VALUES (1,2)"); err != nil {
		t.Fatalf("setup: %v", err)
	}

	const watchers = 4
	watches := make([]*client.Watch, watchers)
	conns := make([]*client.Client, watchers)
	for i := range watches {
		conns[i], err = client.Dial(srv.Addr(), "acme", "")
		if err != nil {
			t.Fatalf("dial watcher %d: %v", i, err)
		}
		watches[i], err = conns[i].Subscribe("edges")
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	writer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Every watcher's stream ends with the server's 503, not an abrupt
	// connection reset: the drain wrote the terminal frame first.
	for i, w := range watches {
		deadline := time.After(5 * time.Second)
		for {
			var open bool
			select {
			case _, open = <-w.Events():
			case <-deadline:
				t.Fatalf("watcher %d: stream still open after drain", i)
			}
			if !open {
				break
			}
		}
		if !client.IsUnavailable(w.Err()) {
			t.Fatalf("watcher %d: terminal error = %v, want 503 unavailable", i, w.Err())
		}
		conns[i].Close()
	}
	waitNoExtraGoroutines(t, base)
}
