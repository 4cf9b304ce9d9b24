// Command ccbench regenerates every table and figure of the paper's
// evaluation (Tables I–V, Figures 5–6) and the theory/ablation experiments
// indexed in DESIGN.md §3, at reproduction scale.
//
// Usage:
//
//	ccbench -table 1|2|3|4|5        one table
//	ccbench -figure 5|6             one figure
//	ccbench -experiment gamma|appendixb|naive|transaction|rounds|scaling|spark|variants|methods|rerandom|segments|spill|stream|frontier
//	ccbench -all                    everything (the EXPERIMENTS.md run)
//	ccbench -concurrency 8          N concurrent RC sessions on one cluster
//
// Flags -scale, -reps, -segments, -seed and -capacity tune the campaign;
// the defaults match the committed EXPERIMENTS.md numbers.
//
// -experiment frontier exits non-zero unless log-diameter needs at most
// half of deterministic contraction's rounds on the 1e6-vertex path, every
// cell ran cleanly, and the path-512 calibration confirms the |V|-1 closed
// form (bench.FrontierGate). -experiment stream exits non-zero if any A10
// cell failed: a statement error, a Watch sequence gap, or a post-delete
// labelling that differs from Union/Find over the surviving edges.
//
// Chaos flags exercise the fault-tolerance layer: -fault-rate injects
// deterministic segment-task failures at the given probability (retried
// by the engine with capped exponential backoff; the labellings must
// still verify), -fault-seed makes the fault schedule reproducible, and
// -timeout aborts any single statement exceeding the duration.
//
// -mem-budget BYTES bounds each statement's working memory: join,
// aggregate and sort kernels spill partitions to temporary files beyond
// their per-segment share (bit-identical results). The dedicated
// -experiment spill ablation instead derives a 10%-of-peak budget per
// algorithm automatically.
//
// -loadgen ADDR drives mixed SQL + connected-components traffic at a
// running ccserverd over the wire protocol (-connections clients spread
// over -tenants tenant catalogs for -load-duration) and prints latency
// percentiles and the server's admission accounting. -require-zero-shed
// makes any shed or failed operation exit non-zero, and -require-hit-rate
// a plan-cache hit rate below the fraction — the CI server-soak contract.
// -stream switches the op mix to streamed edge inserts against a
// component index with -watchers live Watch subscriptions, and exits
// non-zero on any watcher sequence gap, on zero watch events or on zero
// index rebuilds — the CI stream-soak contract.
//
// -pprof addr serves net/http/pprof under /debug/pprof/ and a plain-text
// runtime/metrics dump under /metrics for profiling long campaigns.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/metrics"
	"time"

	"dbcc/internal/bench"
	"dbcc/internal/engine"
)

func main() {
	var (
		table      = flag.Int("table", 0, "print table 1-5")
		figure     = flag.Int("figure", 0, "print figure 5 or 6")
		experiment = flag.String("experiment", "", "run experiment: gamma|appendixb|naive|transaction|rounds|scaling|spark|variants|methods|rerandom|segments|spill|stream|frontier")
		all        = flag.Bool("all", false, "run everything")
		scale      = flag.Float64("scale", 1.0, "dataset scale (1.0 ≈ 1/10000 of the paper)")
		reps       = flag.Int("reps", 3, "repetitions per cell (paper: 3)")
		seed       = flag.Uint64("seed", 2019, "base seed")
		capacity   = flag.Float64("capacity", 6.2, "cluster storage capacity as a multiple of the largest input (0 = unlimited)")
		noVerify   = flag.Bool("noverify", false, "skip oracle verification of every labelling")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		conc       = flag.Int("concurrency", 0, "run N concurrent RC sessions on one shared cluster and report throughput")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
		checkMicro = flag.String("check-micro", "", "gate a `go test -bench` output file against -micro-baseline and exit")
		microBase  = flag.String("micro-baseline", "internal/bench/testdata/microbench_baseline.json", "microbenchmark baseline file for -check-micro")

		loadgen      = flag.String("loadgen", "", "drive wire-protocol load at a running ccserverd on this address")
		connections  = flag.Int("connections", 8, "concurrent client connections for -loadgen")
		tenants      = flag.Int("tenants", 2, "tenant catalogs the -loadgen connections are spread over")
		loadDuration = flag.Duration("load-duration", 10*time.Second, "measurement window for -loadgen")
		loadToken    = flag.String("load-token", "", "auth token for -loadgen connections")
		zeroShed     = flag.Bool("require-zero-shed", false, "exit non-zero if the -loadgen run shed or failed any operation")
		reqHitRate   = flag.Float64("require-hit-rate", 0, "exit non-zero if the -loadgen plan-cache hit rate falls below this fraction")
		stream       = flag.Bool("stream", false, "run -loadgen in streaming mode: edge inserts against a component index plus Watch subscribers; exits non-zero on sequence gaps, no events or no rebuilds")
		watchers     = flag.Int("watchers", 8, "Watch subscriptions held open during a -stream loadgen run")
	)
	var opts engine.Options
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *checkMicro != "" {
		if err := bench.CheckMicroFile(*checkMicro, *microBase); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "microbenchmark gate passed")
		return
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	cfg := bench.Config{
		Options:        opts,
		Scale:          *scale,
		Reps:           *reps,
		Seed:           *seed,
		CapacityFactor: *capacity,
		Verify:         !*noVerify,
	}
	progress := func(s string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s...\n", s)
		}
	}
	out := os.Stdout

	needCampaign := *all || *table >= 3 && *table <= 5 || *figure == 6
	var camp *bench.Campaign
	if needCampaign {
		camp = bench.RunCampaign(cfg, progress)
	}

	ran := false
	section := func() {
		if ran {
			fmt.Fprintln(out)
		}
		ran = true
	}
	if *all || *table == 1 {
		section()
		bench.Table1(out)
	}
	if *all || *table == 2 {
		section()
		bench.Table2(out, cfg)
	}
	if *all || *table == 3 {
		section()
		bench.Table3(out, camp)
	}
	if *all || *table == 4 {
		section()
		bench.Table4(out, camp)
	}
	if *all || *table == 5 {
		section()
		bench.Table5(out, camp)
	}
	if *all || *figure == 5 {
		section()
		bench.Figure5(out, cfg)
	}
	if *all || *figure == 6 {
		section()
		bench.Figure6(out, camp)
	}
	runExp := func(name string) {
		section()
		switch name {
		case "gamma":
			bench.GammaExperiment(out, 50, *seed)
		case "appendixb":
			bench.AppendixBExperiment(out, 20000, *seed)
		case "naive":
			bench.NaiveExperiment(out, cfg)
		case "transaction":
			bench.TransactionExperiment(out, cfg)
		case "rounds":
			bench.RoundsExperiment(out, cfg)
		case "scaling":
			bench.ScalingExperiment(out, cfg)
		case "spark":
			bench.SparkExperiment(out, cfg)
		case "variants":
			bench.VariantsExperiment(out, cfg)
		case "methods":
			bench.MethodsExperiment(out, cfg)
		case "rerandom":
			bench.RerandomExperiment(out, cfg)
		case "segments":
			bench.SegmentsExperiment(out, cfg)
		case "spill":
			bench.SpillExperiment(out, cfg)
		case "stream":
			if err := bench.StreamExperiment(out, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
				os.Exit(1)
			}
		case "frontier":
			if err := bench.FrontierGate(bench.FrontierExperiment(out, cfg)); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "frontier gate passed")
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *all {
		for _, e := range []string{"gamma", "appendixb", "naive", "transaction", "rounds", "scaling", "spark", "variants", "methods", "rerandom", "segments", "spill", "stream", "frontier"} {
			runExp(e)
		}
	} else if *experiment != "" {
		runExp(*experiment)
	}
	if *conc > 0 {
		section()
		bench.ConcurrencyExperiment(out, cfg, *conc)
	}
	if *loadgen != "" {
		ran = true
		runLoadgen(bench.LoadgenConfig{
			Addr:        *loadgen,
			Connections: *connections,
			Tenants:     *tenants,
			Duration:    *loadDuration,
			Seed:        *seed,
			AuthToken:   *loadToken,
			Stream:      *stream,
			Watchers:    *watchers,
		}, *zeroShed, *reqHitRate, progress)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runLoadgen drives the server-soak load generator and prints its result.
// With requireZeroShed, any shed or failed operation — client- or
// server-counted — exits non-zero; with requireHitRate > 0, so does a
// plan-cache hit rate below the threshold: the CI server-soak contract. A
// stream run exits non-zero on any watcher sequence gap, on zero watch
// events or on zero index rebuilds: the CI stream-soak contract.
func runLoadgen(lg bench.LoadgenConfig, requireZeroShed bool, requireHitRate float64, progress func(string)) {
	srv, err := bench.RunLoadgen(lg, progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d ops (%d sql, %d cc) over %d conns/%d tenants in %.0fs; "+
		"p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms; shed=%d failed=%d peak_queue=%d queue_ms=%.1f; "+
		"plan cache hits=%d misses=%d rate=%.3f parses=%d\n",
		srv.Ops, srv.SQLOps, srv.CCOps, srv.Connections, srv.Tenants, srv.DurationSecs,
		srv.P50Millis, srv.P95Millis, srv.P99Millis, srv.MaxMillis,
		srv.Shed, srv.Failed, srv.PeakQueueDepth, srv.QueueMillis,
		srv.PlanCacheHits, srv.PlanCacheMisses, srv.PlanCacheHitRate, srv.Parses)
	if srv.Stream {
		fmt.Fprintf(os.Stderr, "loadgen: stream: %d inserts (p50=%.2fms p95=%.2fms p99=%.2fms) %d deletes; "+
			"%.1f relabels/insert, %d merges, %d rebuilds; %d watchers, %d notifies, %d watch events, %d seq gaps\n",
			srv.InsertOps, srv.InsertP50Millis, srv.InsertP95Millis, srv.InsertP99Millis, srv.DeleteOps,
			srv.RelabelsPerInsert, srv.IndexMerges, srv.IndexRebuilds,
			srv.Watchers, srv.Notifies, srv.WatchEvents, srv.SeqGaps)
		if srv.SeqGaps != 0 || srv.WatchEvents == 0 || srv.IndexRebuilds == 0 {
			fmt.Fprintf(os.Stderr, "loadgen: stream gate failed: %d seq gaps (want 0), %d watch events and %d index rebuilds (want > 0)\n",
				srv.SeqGaps, srv.WatchEvents, srv.IndexRebuilds)
			os.Exit(1)
		}
	}
	if requireZeroShed && (srv.Shed != 0 || srv.Failed != 0 || srv.ServerShed != 0 || srv.ServerFailed != 0) {
		fmt.Fprintf(os.Stderr, "loadgen: shed/failure budget exceeded: client shed=%d failed=%d, server shed=%d failed=%d\n",
			srv.Shed, srv.Failed, srv.ServerShed, srv.ServerFailed)
		os.Exit(1)
	}
	if requireHitRate > 0 && srv.PlanCacheHitRate < requireHitRate {
		fmt.Fprintf(os.Stderr, "loadgen: plan-cache hit rate %.3f below required %.3f (hits=%d misses=%d)\n",
			srv.PlanCacheHitRate, requireHitRate, srv.PlanCacheHits, srv.PlanCacheMisses)
		os.Exit(1)
	}
}

// servePprof serves the stdlib pprof handlers (registered by the
// net/http/pprof import on the default mux) plus a plain-text
// runtime/metrics dump under /metrics.
func servePprof(addr string) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		all := metrics.All()
		samples := make([]metrics.Sample, len(all))
		for i, d := range all {
			samples[i].Name = d.Name
		}
		metrics.Read(samples)
		for _, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
			case metrics.KindFloat64:
				fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
			}
		}
	})
	if err := http.ListenAndServe(addr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
	}
}
