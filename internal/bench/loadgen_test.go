package bench

import (
	"context"
	"testing"
	"time"

	"dbcc"
	"dbcc/internal/server"
)

// startSoakServer boots an in-process ccserverd on a free port and tears
// it down (graceful drain) with the test.
func startSoakServer(t *testing.T) *server.Server {
	t.Helper()
	srv := server.New(server.Config{
		Addr: "127.0.0.1:0",
		DB:   dbcc.Config{Segments: 2},
		// Generous admission limits: the short soak asserts zero shed.
		Admission: server.AdmissionConfig{TenantStatements: 8, TenantQueue: 64, QueueTimeout: time.Minute},
	})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

// TestLoadgenSoak is the server-soak contract in miniature: a short mixed
// SQL + CC run over the wire must complete with zero failures, zero sheds
// (admission limits are generous) and sane latency percentiles.
func TestLoadgenSoak(t *testing.T) {
	srv := startSoakServer(t)
	rep, err := RunLoadgen(LoadgenConfig{
		Addr:        srv.Addr(),
		Connections: 4,
		Tenants:     2,
		Duration:    2 * time.Second,
		Seed:        2019,
		SetupEdges:  120,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.SQLOps == 0 || rep.CCOps == 0 {
		t.Fatalf("soak did no work: %+v", rep)
	}
	if rep.Failed != 0 || rep.Shed != 0 {
		t.Fatalf("soak failed=%d shed=%d: %+v", rep.Failed, rep.Shed, rep)
	}
	if rep.P50Millis <= 0 || rep.P99Millis < rep.P50Millis || rep.MaxMillis < rep.P99Millis {
		t.Fatalf("latency percentiles out of order: p50=%.2f p95=%.2f p99=%.2f max=%.2f",
			rep.P50Millis, rep.P95Millis, rep.P99Millis, rep.MaxMillis)
	}
	if rep.ServerStatements == 0 {
		t.Fatalf("server counted no statements: %+v", rep)
	}
	if rep.ServerShed != 0 || rep.ServerFailed != 0 {
		t.Fatalf("server-side shed=%d failed=%d", rep.ServerShed, rep.ServerFailed)
	}
	if rep.ServerPrepared == 0 {
		t.Fatalf("prepared path served no Prepare frames: %+v", rep)
	}
	// The CI soak lane requires ≥ 0.90 after warmup; even this 2-second
	// run clears it, since only first executions and CC-template builds
	// miss.
	if rep.PlanCacheHitRate < 0.90 {
		t.Fatalf("plan-cache hit rate %.3f < 0.90 (hits=%d misses=%d)",
			rep.PlanCacheHitRate, rep.PlanCacheHits, rep.PlanCacheMisses)
	}
}

// TestLoadgenSetupIdempotent re-runs the tenant setup against the same
// server: the second pass must replace the first tenant graph, not fail on
// the existing table.
func TestLoadgenSetupIdempotent(t *testing.T) {
	srv := startSoakServer(t)
	cfg := LoadgenConfig{Addr: srv.Addr(), SetupEdges: 50}
	cfg.defaults()
	for i := 0; i < 2; i++ {
		if err := setupTenant(&cfg, "reuse", 7); err != nil {
			t.Fatalf("setup pass %d: %v", i, err)
		}
	}
}

// TestPercentile pins nearest rank: the p-quantile of n values is the
// ⌈p·n⌉-th smallest.
func TestPercentile(t *testing.T) {
	ms := func(n int) []time.Duration {
		var ds []time.Duration
		for i := 1; i <= n; i++ {
			ds = append(ds, time.Duration(i)*time.Millisecond)
		}
		return ds
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.50, 50},
		{100, 0.99, 99},
		{100, 1, 100},
		{100, 0.07, 7}, // 0.07·100 is 7.000000000000001 in float64
		{10, 0.95, 10}, // 9.5 rounds up to the 10th value
		{10, 0.01, 1},
		{0, 0.5, 0},
	} {
		if got := percentile(ms(c.n), c.p); got != c.want {
			t.Errorf("n=%d p=%v: percentile = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestLoadgenStream is the stream-soak contract in miniature: the
// streaming op mix (indexed inserts, periodic rebuild-triggering deletes,
// live watchers) must complete with zero failures and zero sheds, record
// insert-only percentiles, show bounded relabel work per insert, rebuild
// at least once, and deliver gap-free watcher sequences.
func TestLoadgenStream(t *testing.T) {
	srv := startSoakServer(t)
	rep, err := RunLoadgen(LoadgenConfig{
		Addr:        srv.Addr(),
		Connections: 4,
		Tenants:     2,
		Duration:    2 * time.Second,
		Seed:        2019,
		SetupEdges:  120,
		Stream:      true,
		Watchers:    3,
		DeleteEvery: 48,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stream || rep.Watchers != 3 {
		t.Fatalf("stream flags not recorded: %+v", rep)
	}
	if rep.InsertOps == 0 || rep.DeleteOps == 0 || rep.SQLOps == 0 {
		t.Fatalf("stream mix did no work: %+v", rep)
	}
	if rep.Failed != 0 || rep.Shed != 0 {
		t.Fatalf("stream failed=%d shed=%d: %+v", rep.Failed, rep.Shed, rep)
	}
	if rep.InsertP50Millis <= 0 || rep.InsertP99Millis < rep.InsertP50Millis {
		t.Fatalf("insert percentiles out of order: p50=%.2f p95=%.2f p99=%.2f",
			rep.InsertP50Millis, rep.InsertP95Millis, rep.InsertP99Millis)
	}
	if rep.RelabelsPerInsert <= 0 || rep.RelabelsPerInsert > 64 {
		// Two edges per insert; amortised union-find work is a handful of
		// pointer writes each — far below this generous ceiling, while a
		// recompute-per-insert would blow past it.
		t.Fatalf("relabels/insert = %.2f outside (0, 64]", rep.RelabelsPerInsert)
	}
	if rep.IndexRebuilds == 0 {
		t.Fatalf("deletes triggered no rebuilds: %+v", rep)
	}
	if rep.IndexMerges == 0 || rep.Notifies == 0 || rep.WatchEvents == 0 {
		t.Fatalf("no fan-out observed: merges=%d notifies=%d watch_events=%d",
			rep.IndexMerges, rep.Notifies, rep.WatchEvents)
	}
	if rep.SeqGaps != 0 {
		t.Fatalf("watchers observed %d sequence gaps", rep.SeqGaps)
	}
	if rep.PlanCacheHitRate < 0.90 {
		t.Fatalf("stream plan-cache hit rate %.3f < 0.90 (hits=%d misses=%d)",
			rep.PlanCacheHitRate, rep.PlanCacheHits, rep.PlanCacheMisses)
	}
}
