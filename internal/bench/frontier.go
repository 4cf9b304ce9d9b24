package bench

import (
	"fmt"
	"io"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/verify"
)

// FrontierEntry is one (dataset, algorithm) cell of the frontier
// experiment: the round count and wall time of one run. Deterministic
// contraction on the 1e6-vertex path needs exactly |V|−1 rounds; that
// entry carries the closed form, which the path-512 run calibrates, and is
// not executed.
type FrontierEntry struct {
	Dataset  string
	Name     string
	Rounds   int
	WallSecs float64
	Error    string
}

// frontierDatasets are the A11 comparison graphs: the adversarial
// sequentially numbered path at calibration and at full scale, a pure hub
// graph, and a preferential-attachment (friendster-shaped) graph.
func frontierDatasets(seed uint64) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path-512", datagen.Path(512)},
		{"path-1e6", datagen.Path(1000000)},
		{"star-200000", datagen.Star(200000)},
		{"friendster-50000", datagen.Friendster(50000, 3, seed)},
	}
}

// FrontierExperiment runs experiment A11: round counts and wall time of
// the two frontier drivers (local contraction, log-diameter) against the
// deterministic-contraction reference on path-, star- and
// friendster-shaped graphs, plus the adaptive planner's choice per graph.
// Deterministic contraction on the sequentially numbered path needs
// exactly |V|−1 rounds (each round only shaves the smallest live vertex
// off the chain — the Fig. 2 worst case); the experiment runs it at
// calibration scale to confirm the closed form and reports the 1e6-vertex
// entry as derived instead of spending ~1e6 rounds in every CI pass.
// FrontierGate checks the returned entries.
func FrontierExperiment(w io.Writer, cfg Config) []FrontierEntry {
	var entries []FrontierEntry
	fmt.Fprintln(w, "EXPERIMENT A11 — ALGORITHM FRONTIER: LOCAL CONTRACTION AND LOG-DIAMETER VS DETERMINISTIC CONTRACTION")
	fmt.Fprintln(w, "(rounds / wall seconds per driver; rc-det on the sequentially numbered path needs |V|-1 rounds,")
	fmt.Fprintln(w, " verified at calibration scale and derived, not run, at 1e6)")
	fmt.Fprintf(w, "%-18s %-22s %18s %18s %18s\n", "dataset", "planner picks", "rc-det", "lc", "ld")

	for _, ds := range frontierDatasets(cfg.Seed) {
		cells := map[string]string{}
		// The planner's decision, from the same pre-scan Auto would run.
		c := engine.NewCluster(cfg.Options)
		if err := graph.Load(c, "input", ds.g); err != nil {
			fmt.Fprintf(w, "%-18s load failed: %v\n", ds.name, err)
			c.Close()
			continue
		}
		decision, derr := ccalg.PlanAlgorithm(c, "input", ccalg.Options{Seed: cfg.Seed})
		c.Close()
		picked := decision.Algorithm
		if derr != nil {
			picked = "error: " + derr.Error()
		}

		for _, alg := range []string{"rc-det", "lc", "ld"} {
			if alg == "rc-det" && ds.name == "path-1e6" {
				// The closed form |V|−1; wall time is unknowable without
				// running it.
				entry := FrontierEntry{Dataset: ds.name, Name: alg, Rounds: ds.g.NumVertices() - 1}
				entries = append(entries, entry)
				cells[alg] = fmt.Sprintf("%d (derived)", entry.Rounds)
				continue
			}
			entry := FrontierEntry{Dataset: ds.name, Name: alg}
			name, opts := alg, ccalg.Options{Seed: cfg.Seed}
			if alg == "rc-det" {
				name, opts.RC.Deterministic = "rc", true
			}
			info, _ := ccalg.ByName(name)
			res, m, err := runOnce(ds.g, info, cfg, opts)
			entry.WallSecs = m.secs
			if err == nil {
				entry.Rounds = res.Rounds
				if cfg.Verify {
					err = verify.Labelling(ds.g, res.Labels)
				}
			}
			if err != nil {
				entry.Error = err.Error()
			}
			entries = append(entries, entry)
			if entry.Error != "" {
				cells[alg] = "error"
				fmt.Fprintf(w, "%-18s %s failed: %s\n", ds.name, alg, entry.Error)
				continue
			}
			cells[alg] = fmt.Sprintf("%d / %.2fs", entry.Rounds, entry.WallSecs)
		}
		fmt.Fprintf(w, "%-18s %-22s %18s %18s %18s\n",
			ds.name, picked, cells["rc-det"], cells["lc"], cells["ld"])
	}
	return entries
}

// FrontierGate is A11's pass/fail verdict over FrontierExperiment's
// entries. Every cell must have run cleanly, the path-512 rc-det run must
// confirm the |V|−1 closed form (511 rounds) that the path-1e6 rc-det
// entry is derived from, and on path-1e6 log-diameter must finish in a
// non-zero number of rounds at most half of deterministic contraction's.
func FrontierGate(entries []FrontierEntry) error {
	rounds := map[string]int{}
	for _, e := range entries {
		if e.Error != "" {
			return fmt.Errorf("frontier: %s on %s failed: %s", e.Name, e.Dataset, e.Error)
		}
		rounds[e.Dataset+"/"+e.Name] = e.Rounds
	}
	if got := rounds["path-512/rc-det"]; got != 511 {
		return fmt.Errorf("frontier: rc-det took %d rounds on path-512, the |V|-1 closed form says 511", got)
	}
	ld, rc := rounds["path-1e6/ld"], rounds["path-1e6/rc-det"]
	if ld <= 0 || rc <= 0 {
		return fmt.Errorf("frontier: path-1e6 has ld %d rounds and rc-det %d; both must be positive", ld, rc)
	}
	if 2*ld > rc {
		return fmt.Errorf("frontier: ld took %d rounds on path-1e6, more than half of rc-det's %d", ld, rc)
	}
	return nil
}
