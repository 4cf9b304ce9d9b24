// Acceptance test for memory-bounded execution, pinning the PR's central
// claim end to end: give each of the paper's five algorithms one tenth of
// the working memory its unbounded run peaked at, and it must still
// complete with the identical labelling, actually spill to disk, keep its
// accounted working memory within the budget, surface the spill activity
// in EXPLAIN ANALYZE, and leave no spill file behind.
//
// The suite lives in package engine_test (like the chaos suite) so it can
// drive the engine through the real ccalg workloads. When SPILL_LOG_DIR
// is set, each run writes a spill-metrics summary there — the CI
// test-spill job uploads them as artifacts. DBCC_MEM_BUDGET overrides the
// derived budget (in bytes) to experiment with other operating points.
package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

// spillGraph is the acceptance workload: large enough that per-segment
// joins and folds have working sets worth bounding (so one tenth of the
// unbounded peak is still a workable share per segment), small enough
// that five algorithms finish quickly even while spilling.
func spillGraph() *graph.Graph { return datagen.Bitcoin(2500, 7) }

func writeSpillLog(t *testing.T, alg string, budget int64, s engine.Stats) {
	dir := os.Getenv("SPILL_LOG_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("SPILL_LOG_DIR: %v", err)
	}
	body := fmt.Sprintf(
		"alg=%s budget=%d peak_work_bytes=%d spilled_bytes=%d spill_partitions=%d spill_passes=%d\n",
		alg, budget, s.PeakWorkBytes, s.SpilledBytes, s.SpillPartitions, s.SpillPasses)
	path := filepath.Join(dir, "spill_"+alg+".log")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// TestSpillTenPercentBudgetAllAlgorithms is the pinned acceptance test:
// budget = 10% of the unbounded run's peak accounted working memory.
func TestSpillTenPercentBudgetAllAlgorithms(t *testing.T) {
	g := spillGraph()
	for _, info := range chaosAlgorithms() {
		t.Run(info.Name, func(t *testing.T) {
			base, bc, err := runAlg(t, info, g, engine.Options{Segments: 4}, ccalg.Options{Seed: 1})
			if err != nil {
				t.Fatalf("unbounded run: %v", err)
			}
			peak := bc.Stats().PeakWorkBytes
			if peak == 0 {
				t.Fatal("unbounded run recorded no peak working memory")
			}
			budget := peak / 10
			if env, err := strconv.ParseInt(os.Getenv("DBCC_MEM_BUDGET"), 10, 64); err == nil && env > 0 {
				budget = env
			}

			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			res, c, err := runAlg(t, info, g,
				engine.Options{Segments: 4, MemoryBudget: budget}, ccalg.Options{Seed: 1})
			if c != nil {
				defer c.Close()
			}
			if err != nil {
				t.Fatalf("budgeted run (budget=%d): %v", budget, err)
			}

			// (a) The labelling is identical — spilling must be invisible.
			if len(res.Labels) != len(base.Labels) {
				t.Fatalf("budgeted run labelled %d vertices, unbounded %d",
					len(res.Labels), len(base.Labels))
			}
			for v, l := range base.Labels {
				if res.Labels[v] != l {
					t.Fatalf("vertex %d: budgeted label %d, unbounded %d", v, res.Labels[v], l)
				}
			}

			// (b) The run genuinely spilled.
			s := c.Stats()
			if s.SpilledBytes == 0 {
				t.Fatalf("budgeted run (budget=%d, unbounded peak=%d) never spilled", budget, peak)
			}

			// (c) Accounted working memory stayed within the budget.
			if s.PeakWorkBytes > budget {
				t.Fatalf("peak accounted working memory %d exceeds budget %d",
					s.PeakWorkBytes, budget)
			}

			// (d) Spill activity surfaces in the rendered operator profiles.
			var rendered bool
			for _, rec := range c.Trace() {
				if rec.Root != nil && rec.Root.TotalSpilled() > 0 {
					if out := rec.Root.Format(); strings.Contains(out, "spilled=") {
						rendered = true
						break
					}
					t.Fatal("operator profile with spill activity renders no spilled= field")
				}
			}
			if !rendered {
				t.Fatal("no traced statement shows spill activity")
			}

			// (e) No spill file outlives its statement: no descriptor still
			// refers to one, and the run's TMPDIR is empty.
			if open := engine.OpenSpillFiles(t); len(open) > 0 {
				t.Fatalf("spill files still open after the run: %v", open)
			}
			if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
				t.Fatalf("TMPDIR after the run: %d entries (%v)", len(ents), err)
			}

			writeSpillLog(t, info.Name, budget, s)
		})
	}
}
