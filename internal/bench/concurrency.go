package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/verify"
)

// ConcurrencyExperiment exercises the multi-session engine: n sessions run
// Randomised Contraction on n different R-MAT graphs against ONE shared
// cluster, first one after another and then all at once. Both passes must
// produce correct labellings; the report compares the wall-clock times and
// prints the engine's concurrency gauges (peak simultaneously executing
// statements). Because every session's segment tasks drain through one
// worker pool bounded by the cluster's worker budget, the concurrent pass
// overlaps the per-round SQL latencies without oversubscribing the host.
func ConcurrencyExperiment(w io.Writer, cfg Config, sessions int) {
	fmt.Fprintf(w, "EXPERIMENT E11 — CONCURRENT SESSIONS (%d x Randomised Contraction, one shared cluster)\n", sessions)

	type sessionJob struct {
		table string
		g     *graph.Graph
	}
	newCluster := func() (*engine.Cluster, []sessionJob, bool) {
		c := engine.NewCluster(cfg.Options)
		ccalg.RegisterUDFs(c)
		jobs := make([]sessionJob, sessions)
		for i := range jobs {
			edges := int(cfg.Scale * float64(20000+4000*i))
			if edges < 200 {
				edges = 200
			}
			g := datagen.RMAT(14, edges, 0.57, 0.19, 0.19, 0.05, cfg.Seed+uint64(i))
			jobs[i] = sessionJob{table: fmt.Sprintf("conc_in_%d", i), g: g}
			if err := graph.Load(c, jobs[i].table, g); err != nil {
				fmt.Fprintf(w, "load session %d: %v\n", i, err)
				return nil, nil, false
			}
		}
		return c, jobs, true
	}
	runOne := func(c *engine.Cluster, j sessionJob, seed uint64) error {
		res, err := ccalg.RandomisedContraction(c, j.table, ccalg.Options{Seed: seed})
		if err != nil {
			return err
		}
		if cfg.Verify {
			return verify.Labelling(j.g, res.Labels)
		}
		return nil
	}

	// Pass 1: the same workload, one session at a time.
	c, jobs, ok := newCluster()
	if !ok {
		return
	}
	defer c.Close()
	soloStart := time.Now()
	for i, j := range jobs {
		if err := runOne(c, j, cfg.Seed+uint64(i)); err != nil {
			fmt.Fprintf(w, "solo session %d: %v\n", i, err)
			return
		}
	}
	solo := time.Since(soloStart).Seconds()

	// Pass 2: all sessions at once on a fresh cluster.
	c, jobs, ok = newCluster()
	if !ok {
		return
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	concStart := time.Now()
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j sessionJob) {
			defer wg.Done()
			errs[i] = runOne(c, j, cfg.Seed+uint64(i))
		}(i, j)
	}
	wg.Wait()
	conc := time.Since(concStart).Seconds()
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(w, "concurrent session %d: %v\n", i, err)
			return
		}
	}

	cs := c.ConcurrencyStats()
	fmt.Fprintf(w, "%-28s %10s\n", "", "seconds")
	fmt.Fprintf(w, "%-28s %10.2f\n", "sequential (one at a time)", solo)
	fmt.Fprintf(w, "%-28s %10.2f\n", "concurrent (all at once)", conc)
	if conc > 0 {
		fmt.Fprintf(w, "%-28s %9.2fx\n", "throughput gain", solo/conc)
	}
	fmt.Fprintf(w, "worker budget %d, peak concurrent statements %d, statements total %d\n",
		c.Workers(), cs.Peak, cs.Total)
	if cfg.Verify {
		fmt.Fprintln(w, "(every labelling verified against the Union/Find oracle in both passes)")
	}
}
