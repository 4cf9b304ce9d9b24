// Chaos suite for the fault-tolerance layer: the five connected-components
// algorithms must produce fault-free labellings while segment tasks fail
// and straggle under deterministic injection, cancellation must abort a
// running query promptly without leaking goroutines, and the retry /
// fault / cancellation counters must surface in EXPLAIN ANALYZE.
//
// The suite lives in package engine_test so it can drive the engine
// through the real algorithm workloads (package ccalg imports engine, so
// an internal test would cycle). When CHAOS_LOG_DIR is set, every chaos
// run writes its per-round log there — the CI chaos job uploads them as
// artifacts.
package engine_test

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

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/sql"
)

// chaosGraph is the shared workload: big enough that every algorithm
// issues a few dozen statements across several rounds, small enough that
// five algorithms times three runs stay fast.
func chaosGraph() *graph.Graph { return datagen.Bitcoin(150, 7) }

// chaosAlgorithms returns all five algorithms of the paper.
func chaosAlgorithms() []ccalg.Info {
	var out []ccalg.Info
	for _, name := range []string{"rc", "hm", "tp", "cr", "bfs"} {
		info, ok := ccalg.ByName(name)
		if !ok {
			panic("unknown algorithm " + name)
		}
		out = append(out, info)
	}
	return out
}

// runAlg loads the graph on a fresh cluster built from opts and runs one
// algorithm, returning its result and the cluster for counter inspection.
func runAlg(t *testing.T, info ccalg.Info, g *graph.Graph, opts engine.Options, algOpts ccalg.Options) (*ccalg.Result, *engine.Cluster, error) {
	t.Helper()
	c := engine.NewCluster(opts)
	ccalg.RegisterUDFs(c)
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := info.Run(c, "input", algOpts)
	return res, c, err
}

// writeChaosLog dumps a chaos run's round log into CHAOS_LOG_DIR (when
// set) for the CI artifact upload.
func writeChaosLog(t *testing.T, alg string, log []ccalg.RoundStats, retries, faults int64) {
	dir := os.Getenv("CHAOS_LOG_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("CHAOS_LOG_DIR: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %d rounds, %d retries, %d injected faults\n", alg, len(log), retries, faults)
	for _, rs := range log {
		fmt.Fprintf(&b, "round=%d live_vertices=%d live_edges=%d queries=%d rows=%d bytes=%d\n",
			rs.Round, rs.LiveVertices, rs.LiveEdges, rs.Queries, rs.RowsWritten, rs.BytesWritten)
	}
	path := filepath.Join(dir, "chaos_"+alg+".log")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// TestChaosLabelsMatchFaultFree runs every algorithm under 5% injected
// segment-task failures plus latency spikes and checks that (a) the
// labelling is exactly the fault-free one — retries must be invisible to
// the result — and (b) the fault schedule is deterministic: a second run
// with the same seed injects exactly the same faults.
func TestChaosLabelsMatchFaultFree(t *testing.T) {
	g := chaosGraph()
	var totalInjected int64
	for _, info := range chaosAlgorithms() {
		base, _, err := runAlg(t, info, g, engine.Options{Segments: 4}, ccalg.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s fault-free: %v", info.Name, err)
		}
		chaos := func() (*ccalg.Result, *engine.FaultInjector, *engine.Cluster) {
			faults := engine.FaultConfig{
				Seed:        42,
				FailureRate: 0.05,
				LatencyRate: 0.05,
				Latency:     50 * time.Microsecond,
			}
			res, c, err := runAlg(t, info, g,
				engine.Options{Segments: 4, Faults: faults},
				ccalg.Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s under 5%% faults: %v", info.Name, err)
			}
			return res, c.FaultInjector(), c
		}
		res1, inj1, c1 := chaos()
		_, inj2, _ := chaos()

		if len(res1.Labels) != len(base.Labels) {
			t.Fatalf("%s: chaos labelled %d vertices, fault-free %d", info.Name, len(res1.Labels), len(base.Labels))
		}
		for v, l := range base.Labels {
			if res1.Labels[v] != l {
				t.Fatalf("%s: vertex %d labelled %d under faults, %d fault-free", info.Name, v, res1.Labels[v], l)
			}
		}
		if inj1.Injected() != inj2.Injected() || inj1.Delayed() != inj2.Delayed() {
			t.Fatalf("%s: fault schedule not deterministic: run1 injected=%d delayed=%d, run2 injected=%d delayed=%d",
				info.Name, inj1.Injected(), inj1.Delayed(), inj2.Injected(), inj2.Delayed())
		}
		st := c1.Stats()
		retries, faults := st.TaskRetries, st.TaskFaults
		if faults != inj1.Injected() {
			t.Fatalf("%s: cluster counted %d faults, injector produced %d", info.Name, faults, inj1.Injected())
		}
		totalInjected += inj1.Injected()
		writeChaosLog(t, info.Name, res1.RoundLog, retries, faults)
	}
	if totalInjected == 0 {
		t.Fatal("5% failure rate injected no faults across all five algorithms; the injector is not wired in")
	}
}

// TestChaosExhaustedRetriesReturnRoundError drives the failure rate to
// 100% so every retry is burned, and checks the typed partial-progress
// error: a *ccalg.RoundError that still unwraps to ErrInjectedFault. The
// cases pin that each retry-policy field of FaultConfig reaches the retry
// loop: the per-task cap (default 3 retries) and the statement budget.
func TestChaosExhaustedRetriesReturnRoundError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults engine.FaultConfig
		want   string
	}{
		{"default", engine.FaultConfig{}, "after 4 attempts"},
		{"max-task-retries", engine.FaultConfig{MaxTaskRetries: 2}, "after 3 attempts"},
		{"retry-budget", engine.FaultConfig{RetryBudget: 1}, "retry budget exhausted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := tc.faults
			faults.Seed, faults.FailureRate, faults.RetryBackoff = 1, 1, time.Microsecond
			info, _ := ccalg.ByName("rc")
			_, _, err := runAlg(t, info, chaosGraph(),
				engine.Options{Segments: 4, Faults: faults},
				ccalg.Options{Seed: 1})
			if err == nil {
				t.Fatal("run succeeded with a 100% failure rate")
			}
			var re *ccalg.RoundError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *ccalg.RoundError", err, err)
			}
			if !errors.Is(err, engine.ErrInjectedFault) {
				t.Fatalf("RoundError does not unwrap to ErrInjectedFault: %v", err)
			}
			if re.Algorithm != "rc" || re.Round < 1 {
				t.Fatalf("RoundError carries algorithm=%q round=%d", re.Algorithm, re.Round)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// pre-test baseline (plus slack for runtime helpers), failing if worker
// goroutines are still alive after the deadline — the no-leak bound of
// the cancellation contract.
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

// TestCancelAbortsRunQuickly cancels an in-flight algorithm run and
// requires it to return within 100ms, with a cancellation-typed
// RoundError and no leaked worker goroutines.
func TestCancelAbortsRunQuickly(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	c := engine.NewCluster(engine.Options{Segments: 4})
	ccalg.RegisterUDFs(c)
	// A graph large enough that the run is still going when cancel fires.
	if err := graph.Load(c, "input", datagen.Bitcoin(5000, 7)); err != nil {
		t.Fatalf("load: %v", err)
	}
	info, _ := ccalg.ByName("hm")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := info.Run(c, "input", ccalg.Options{Seed: 1, Context: ctx})
		done <- err
	}()
	// Wait until the run has issued a few statements so the cancel lands
	// mid-flight.
	for i := 0; c.Stats().Queries < 3; i++ {
		if i > 2000 {
			t.Fatal("run never started issuing queries")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	t0 := time.Now()
	select {
	case err := <-done:
		if elapsed := time.Since(t0); elapsed > 100*time.Millisecond {
			t.Fatalf("cancelled run took %v to return, want <100ms", elapsed)
		}
		if err == nil {
			t.Fatal("cancelled run returned no error")
		}
		var re *ccalg.RoundError
		if !errors.As(err, &re) {
			t.Fatalf("cancelled run returned %T (%v), want *ccalg.RoundError", err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run's error does not unwrap to context.Canceled: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return within 5s")
	}
	waitNoExtraGoroutines(t, baseGoroutines)
}

// TestQueryTimeoutAbortsRun checks Options.QueryTimeout: with an
// already-expired per-statement deadline the run must abort immediately
// with a RoundError unwrapping to context.DeadlineExceeded.
func TestQueryTimeoutAbortsRun(t *testing.T) {
	info, _ := ccalg.ByName("rc")
	t0 := time.Now()
	_, _, err := runAlg(t, info, chaosGraph(),
		engine.Options{Segments: 4, QueryTimeout: time.Nanosecond},
		ccalg.Options{Seed: 1})
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("timed-out run took %v to return", elapsed)
	}
	if err == nil {
		t.Fatal("run succeeded under a 1ns query timeout")
	}
	var re *ccalg.RoundError
	if !errors.As(err, &re) {
		t.Fatalf("timed-out run returned %T (%v), want *ccalg.RoundError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run's error does not unwrap to DeadlineExceeded: %v", err)
	}
}

// TestExplainAnalyzeShowsRetryCounters checks that injected faults and
// the retries that absorb them surface in the EXPLAIN ANALYZE profile.
func TestExplainAnalyzeShowsRetryCounters(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 8, Faults: engine.FaultConfig{
		Seed: 3, FailureRate: 0.1, RetryBackoff: time.Microsecond,
	}})
	sess := sql.NewSession(c)
	if _, err := sess.Exec("create table t (v1, v2) distributed by (v1);"); err != nil {
		t.Fatalf("create: %v", err)
	}
	var ins strings.Builder
	ins.WriteString("insert into t values ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i*7%13)
	}
	ins.WriteString(";")
	if _, err := sess.Exec(ins.String()); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// The fault schedule is deterministic per statement sequence; a 10%
	// rate over 8 segments and several operators hits within a few
	// statements. Stop at the first profile that shows the counters.
	for i := 0; i < 100; i++ {
		out, err := sess.ExplainAnalyze("select v1, min(v2) from t group by v1")
		if err != nil {
			t.Fatalf("explain analyze: %v", err)
		}
		if strings.Contains(out, "retries=") && strings.Contains(out, "faults=") {
			if st := c.Stats(); st.TaskRetries == 0 || st.TaskFaults == 0 {
				t.Fatalf("profile shows counters but cluster totals are retries=%d faults=%d", st.TaskRetries, st.TaskFaults)
			}
			return
		}
	}
	t.Fatalf("no EXPLAIN ANALYZE profile showed retry/fault counters in 100 statements (injector produced %d faults)", c.FaultInjector().Injected())
}

// TestPanicInUDFFailsOnlyThatQuery registers user-defined functions that
// panic — one in scalar form, called per row, and one in column form,
// called per chunk — and checks the fan-out contract for both: the query
// fails with a deterministic error naming the lowest failing segment
// (first-error-wins is not schedule-dependent), the process survives, no
// goroutines leak, and the cluster keeps answering queries. Run under -race
// this doubles as the fan-out error-propagation regression test.
func TestPanicInUDFFailsOnlyThatQuery(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	c := engine.NewCluster(engine.Options{Segments: 4})
	c.RegisterUDF("boom", func(args []engine.Datum) engine.Datum {
		panic("kaboom")
	})
	c.RegisterColumnUDF("boomcol", func(out []int64, args []engine.UDFArg) {
		panic("kaboom")
	})
	if _, err := c.CreateTable("t", engine.Schema{"v"}, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	rows := make([]engine.Row, 64)
	for i := range rows {
		rows[i] = engine.Row{engine.I(int64(i))}
	}
	if err := c.InsertRows("t", rows); err != nil {
		t.Fatalf("insert: %v", err)
	}
	scan := engine.Scan("t")
	for _, fn := range []string{"boom", "boomcol"} {
		call, err := c.CallUDF(fn, engine.Col(0))
		if err != nil {
			t.Fatalf("call %s: %v", fn, err)
		}
		bad := engine.Project(scan, engine.ProjCol{Expr: call, Name: "b"})
		for i := 0; i < 8; i++ {
			_, _, err := c.Query(bad)
			if err == nil {
				t.Fatalf("query with the panicking UDF %s succeeded", fn)
			}
			// Every segment's task panics; deterministic first-error-wins must
			// always report the lowest one.
			if !strings.Contains(err.Error(), "segment 0 task panicked") {
				t.Fatalf("%s run %d: error does not name segment 0 deterministically: %v", fn, i, err)
			}
		}
		// The failure is contained: the same cluster still executes queries.
		if _, _, err := c.Query(scan); err != nil {
			t.Fatalf("cluster unusable after %s panicked: %v", fn, err)
		}
	}
	waitNoExtraGoroutines(t, baseGoroutines)
}
