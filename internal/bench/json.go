package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dbcc/internal/ccalg"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/verify"
)

// JSONSchemaVersion identifies the BENCH_*.json layout; bump it whenever a
// field is added, removed or renamed so downstream consumers (the CI
// bench-smoke job, plotting scripts) can detect mismatches.
//
// Version 2 added partial (rounds completed before a failed run aborted)
// and the fault-tolerance counters retries/faults.
//
// Version 3 added the memory-bounded-execution accounting: the campaign's
// memory_budget and, per algorithm, peak_work_bytes, spilled_bytes,
// spill_partitions and spill_passes.
//
// Version 4 added the data-movement kernel accounting: the campaign's
// bloom_join and operator_fusion flags and, per algorithm, the bloom-join
// pruning counters bloom_checked, bloom_skipped and shuffle_saved_bytes.
//
// Version 5 added the optional server section: wire-protocol load-generator
// results against a running ccserverd — client-observed latency percentiles
// (p50/p95/p99), shed and failure counts, and the server's admission-queue
// accounting. Reports without a server run omit the section.
//
// Version 6 added the prepared-statement accounting: per algorithm and per
// round, parses / plan_hits / plan_misses expose how much planning work the
// plan cache amortised; the server section gained the no_prepare ablation
// flag, window parse counts and the plan-cache hit rate.
//
// Version 7 added the streaming section of server reports (stream mode —
// dataset "stream-soak"): stream/watchers flags, insert_ops/delete_ops,
// insert-only latency percentiles insert_p50_ms/insert_p95_ms/insert_p99_ms,
// the bounded-work witness relabels_per_insert, the window deltas
// index_merges/index_rebuilds/notifies, and the watcher-observed
// watch_events/seq_gaps (a healthy run reports seq_gaps == 0).
//
// Version 8 added the frontier report (ccbench -experiment frontier —
// BENCH_frontier.json): experiment tag plus per-(dataset, algorithm)
// entries with rounds, wall_secs, peak_bytes and the derived flag marking
// closed-form round counts that were not run to completion.
//
// Version 9 removed version 4's bloom_join and operator_fusion flags and
// the per-algorithm bloom_checked, bloom_skipped and shuffle_saved_bytes:
// the engine has one way to run a join and a scan pipeline, so there is
// nothing left to switch or count.
const JSONSchemaVersion = 9

// RoundJSON is one algorithm round in the machine-readable report — the
// serialised form of ccalg.RoundStats.
type RoundJSON struct {
	Round        int   `json:"round"`
	LiveVertices int64 `json:"live_vertices"`
	LiveEdges    int64 `json:"live_edges"`
	Queries      int64 `json:"queries"`
	RowsWritten  int64 `json:"rows_written"`
	BytesWritten int64 `json:"bytes_written"`
	Parses       int64 `json:"parses"`      // statements parsed during the round
	PlanHits     int64 `json:"plan_hits"`   // plan-cache hits during the round
	PlanMisses   int64 `json:"plan_misses"` // plan-cache misses during the round
}

// AlgorithmJSON is one algorithm's run on one dataset: the whole-run
// engine accounting (the machine-readable Tables III–V cell) plus the
// per-round measurement stream. Error is empty for clean runs; DNF marks
// the paper's "did not finish" storage-wall outcome.
type AlgorithmJSON struct {
	Name         string      `json:"name"`
	FullName     string      `json:"full_name"`
	DNF          bool        `json:"dnf"`
	Error        string      `json:"error"`
	Partial      int         `json:"partial"` // rounds completed before a failing run aborted
	Retries      int64       `json:"retries"` // segment-task retries (fault injection)
	Faults       int64       `json:"faults"`  // injected segment faults
	Rounds       int         `json:"rounds"`
	Queries      int64       `json:"queries"`
	RowsWritten  int64       `json:"rows_written"`
	BytesWritten int64       `json:"bytes_written"`
	PeakBytes    int64       `json:"peak_bytes"`
	ShuffleBytes int64       `json:"shuffle_bytes"`
	PeakWork     int64       `json:"peak_work_bytes"`  // peak accounted working memory
	Spilled      int64       `json:"spilled_bytes"`    // bytes written to spill partitions
	SpillParts   int64       `json:"spill_partitions"` // partition files created
	SpillPasses  int64       `json:"spill_passes"`     // partitioning passes (recursion included)
	Parses       int64       `json:"parses"`           // SQL statements parsed over the run
	PlanHits     int64       `json:"plan_hits"`        // plan-cache hits over the run
	PlanMisses   int64       `json:"plan_misses"`      // plan-cache misses over the run
	MeanSecs     float64     `json:"mean_secs"`
	Components   int         `json:"components"`
	RoundLog     []RoundJSON `json:"round_log"`
}

// BenchJSON is the per-dataset benchmark report written as
// BENCH_<dataset>.json by ccbench -json.
type BenchJSON struct {
	SchemaVersion int             `json:"schema_version"`
	Dataset       string          `json:"dataset"`
	Scale         float64         `json:"scale"`
	Segments      int             `json:"segments"`
	Seed          uint64          `json:"seed"`
	MemoryBudget  int64           `json:"memory_budget"` // bytes per statement; 0 = unbounded
	Vertices      int64           `json:"vertices"`
	Edges         int64           `json:"edges"`
	Algorithms    []AlgorithmJSON `json:"algorithms"`
	// Server holds server-soak load-generator results (ccbench -loadgen);
	// nil for ordinary dataset reports.
	Server *ServerJSON `json:"server,omitempty"`
}

// jsonAlgorithm is one entry of a JSON report's run list.
type jsonAlgorithm struct {
	Name, FullName string
	Run            ccalg.Func
	RC             ccalg.RCOptions
}

// jsonAlgorithms returns the runs of a JSON report: the four table
// algorithms of Tables III–V plus the deterministic RC variant, whose
// query count is reproducible for a fixed seed and scale and therefore
// anchors the CI baseline comparison.
func jsonAlgorithms() []jsonAlgorithm {
	var out []jsonAlgorithm
	for _, info := range TableAlgorithms() {
		out = append(out, jsonAlgorithm{Name: info.Name, FullName: info.FullName, Run: info.Run})
	}
	out = append(out, jsonAlgorithm{
		Name:     "rc-det",
		FullName: "Randomised Contraction (deterministic)",
		Run:      ccalg.RandomisedContraction,
		RC:       ccalg.RCOptions{Deterministic: true},
	})
	return out
}

// JSONReport runs every report algorithm once on the dataset (each on a
// fresh cluster) and assembles the machine-readable report. One repetition
// per algorithm keeps the CI smoke run fast; the deterministic entries
// (query counts, rows, rounds) do not vary across repetitions anyway.
func JSONReport(ds Dataset, cfg Config, capacity int64) *BenchJSON {
	g := ds.Gen(cfg.Scale, cfg.Seed)
	rep := &BenchJSON{
		SchemaVersion: JSONSchemaVersion,
		Dataset:       ds.Name,
		Scale:         cfg.Scale,
		Segments:      cfg.Segments,
		Seed:          cfg.Seed,
		MemoryBudget:  cfg.MemoryBudget,
		Vertices:      int64(g.NumVertices()),
		Edges:         int64(g.NumEdges()),
	}
	for _, a := range jsonAlgorithms() {
		aj := AlgorithmJSON{Name: a.Name, FullName: a.FullName, RoundLog: []RoundJSON{}}
		c := engine.NewCluster(clusterOptions(cfg))
		if err := graph.Load(c, "input", g); err != nil {
			aj.Error = err.Error()
			rep.Algorithms = append(rep.Algorithms, aj)
			c.Close()
			continue
		}
		input := c.Stats().LiveBytes
		c.ResetStats()
		opts := ccalg.Options{
			Seed:         cfg.Seed,
			MaxLiveBytes: capacity,
			RC:           a.RC,
			// Stream rounds into the report as they finish, so partial logs
			// survive a storage-wall abort.
			OnRound: func(rs ccalg.RoundStats) {
				aj.RoundLog = append(aj.RoundLog, RoundJSON{
					Round:        rs.Round,
					LiveVertices: rs.LiveVertices,
					LiveEdges:    rs.LiveEdges,
					Queries:      rs.Queries,
					RowsWritten:  rs.RowsWritten,
					BytesWritten: rs.BytesWritten,
					Parses:       rs.Parses,
					PlanHits:     rs.PlanHits,
					PlanMisses:   rs.PlanMisses,
				})
			},
		}
		start := time.Now()
		res, err := a.Run(c, "input", opts)
		aj.MeanSecs = time.Since(start).Seconds()
		st := c.Stats()
		aj.Queries = st.Queries
		aj.RowsWritten = st.RowsWritten
		aj.BytesWritten = st.BytesWritten
		aj.PeakBytes = st.PeakBytes - input
		aj.ShuffleBytes = st.ShuffleBytes
		aj.PeakWork = st.PeakWorkBytes
		aj.Spilled = st.SpilledBytes
		aj.SpillParts = st.SpillPartitions
		aj.SpillPasses = st.SpillPasses
		aj.Parses = st.Parses
		aj.PlanHits = st.PlanCacheHits
		aj.PlanMisses = st.PlanCacheMisses
		aj.Retries, aj.Faults, _ = c.FaultTotals()
		var re *ccalg.RoundError
		if errors.As(err, &re) {
			aj.Partial = len(re.RoundLog)
		}
		switch {
		case errors.Is(err, ccalg.ErrSpaceLimit):
			aj.DNF = true
		case err != nil:
			aj.Error = err.Error()
		default:
			aj.Rounds = res.Rounds
			aj.Components = res.Labels.NumComponents()
			if cfg.Verify {
				if verr := verify.Labelling(g, res.Labels); verr != nil {
					aj.Error = verr.Error()
				}
			}
		}
		rep.Algorithms = append(rep.Algorithms, aj)
		c.Close()
	}
	return rep
}

// JSONFileName maps a dataset name to its report file name
// (spaces become underscores): "Bitcoin addresses" →
// "BENCH_Bitcoin_addresses.json".
func JSONFileName(dataset string) string {
	return "BENCH_" + strings.ReplaceAll(dataset, " ", "_") + ".json"
}

// WriteJSONReports runs the JSON report for each dataset and writes
// BENCH_<dataset>.json files into dir (created if needed), returning the
// reports alongside their file paths.
func WriteJSONReports(dir string, datasets []Dataset, cfg Config, progress func(string)) ([]*BenchJSON, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	capacity := capacityBytes(cfg)
	var reps []*BenchJSON
	var paths []string
	for _, ds := range datasets {
		if progress != nil {
			progress(ds.Name + " (json)")
		}
		rep := JSONReport(ds, cfg, capacity)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		path := filepath.Join(dir, JSONFileName(ds.Name))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return nil, nil, err
		}
		reps = append(reps, rep)
		paths = append(paths, path)
	}
	return reps, paths, nil
}

// Baseline is the committed reference the CI bench-smoke job checks
// reports against: the deterministic-RC query count per dataset, with a
// relative tolerance for benign drift (for example a convergence-check
// tweak changing the per-round statement count by one).
type Baseline struct {
	// Tolerance is the allowed relative deviation of the actual query
	// count from the expected one (0.1 = ±10%).
	Tolerance float64 `json:"tolerance"`
	// RCDetQueries maps dataset name to the expected whole-run query count
	// of the deterministic RC variant.
	RCDetQueries map[string]int64 `json:"rc_det_queries"`
}

// LoadBaseline reads a committed baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: baseline %s: %w", path, err)
	}
	return &b, nil
}

// Check compares a report's deterministic-RC query count against the
// baseline, failing on datasets missing from the baseline and on
// deviations beyond the tolerance. A nil error means the report is within
// the committed envelope.
func (b *Baseline) Check(rep *BenchJSON) error {
	expected, ok := b.RCDetQueries[rep.Dataset]
	if !ok {
		return fmt.Errorf("bench: dataset %q has no baseline entry; regenerate the baseline", rep.Dataset)
	}
	var actual int64 = -1
	for _, a := range rep.Algorithms {
		if a.Name == "rc-det" {
			if a.Error != "" {
				return fmt.Errorf("bench: %s: deterministic RC failed: %s", rep.Dataset, a.Error)
			}
			if a.DNF {
				return fmt.Errorf("bench: %s: deterministic RC hit the storage wall", rep.Dataset)
			}
			actual = a.Queries
		}
	}
	if actual < 0 {
		return fmt.Errorf("bench: %s: report has no rc-det entry", rep.Dataset)
	}
	dev := float64(actual-expected) / float64(expected)
	if dev < 0 {
		dev = -dev
	}
	if dev > b.Tolerance {
		return fmt.Errorf("bench: %s: deterministic RC issued %d queries, baseline expects %d (±%.0f%%); "+
			"if the change is intended, update the baseline file",
			rep.Dataset, actual, expected, 100*b.Tolerance)
	}
	return nil
}
