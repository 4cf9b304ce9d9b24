package conformance

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/unionfind"
	"dbcc/internal/xrand"
)

// Property-based differential suite: every driver — the paper's five, the
// two frontier drivers and the adaptive planner — on randomly drawn graphs
// from six structural families, must produce the same canonical labelling
// as the Union/Find oracle — and the *identical* labelling regardless of
// memory budget (spilling kernels are bit-identical) and of injected
// faults (retries are transparent). These two axes are exactly the
// conditions the ICDE'20 evaluation never varies: the paper's correctness claims are
// per-algorithm, so any divergence here is an engine bug, not an algorithm
// property. For the adaptive planner the matrix additionally pins that
// planning decisions are a pure function of the graph: were a decision to
// depend on the budget or on faults, the cells would diverge.

// propertyCells is the execution matrix: each cell is one cluster
// configuration every algorithm × family pair must label identically
// under. The budget axis spans unbounded, tight enough that per-round
// joins and folds spill, and pathologically small so every kernel takes
// its spilling path; the fault cells run with injected segment faults and
// retries. That prepared execution equals the literal SQL text is pinned
// by internal/sql's TestPreparedValueResultsMatchText, at the layer that
// owns it.
var propertyCells = []struct {
	name   string
	budget int64
	faulty bool
}{
	{"unbounded", 0, false},
	{"tight", 8 << 10, false},
	{"tight/faults", 8 << 10, true},
	{"pathological", 1 << 10, false},
	{"pathological/faults", 1 << 10, true},
}

// randomFamilies draws one graph per structural family from rng. Isolated
// vertices follow the repo convention of self-loop edges (the engine's
// input is an edge table, so a vertex exists only by appearing in one).
func randomFamilies(rng *xrand.Rand) map[string]*graph.Graph {
	fams := map[string]*graph.Graph{}

	n := 30 + int(rng.Uint64n(50))
	fams["erdos"] = datagen.ErdosRenyi(n, n+int(rng.Uint64n(uint64(2*n))), rng.Uint64())

	fams["star"] = datagen.Star(10 + int(rng.Uint64n(40)))
	fams["path"] = datagen.Path(10 + int(rng.Uint64n(30)))

	// Cliques plus bridges: k dense blobs, then a few random cross-clique
	// bridge edges merging some of them.
	cliques := graph.New(0)
	k := 3 + int(rng.Uint64n(4))
	size := 4 + int(rng.Uint64n(5))
	for c := 0; c < k; c++ {
		base := int64(c * 1000)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				cliques.AddEdge(base+int64(i), base+int64(j))
			}
		}
	}
	for b := 0; b < k/2; b++ {
		from, to := rng.Uint64n(uint64(k)), rng.Uint64n(uint64(k))
		cliques.AddEdge(int64(from*1000)+int64(rng.Uint64n(uint64(size))),
			int64(to*1000)+int64(rng.Uint64n(uint64(size))))
	}
	fams["cliques-bridges"] = cliques

	// Self-loops and duplicate edges: a small vertex universe hit with
	// many redundant edges, loops included.
	loops := graph.New(0)
	verts := 12 + int(rng.Uint64n(12))
	for i := 0; i < 6*verts; i++ {
		v := int64(rng.Uint64n(uint64(verts)))
		w := int64(rng.Uint64n(uint64(verts)))
		if rng.Uint64n(5) == 0 {
			w = v // self-loop
		}
		loops.AddEdge(v, w)
	}
	fams["loops-dups"] = loops

	// Isolated vertices: a sparse graph plus lone vertices as self-loops.
	iso := datagen.ErdosRenyi(20, 12, rng.Uint64())
	for i := 0; i < 8; i++ {
		v := int64(100000 + rng.Uint64n(1000))
		iso.AddEdge(v, v)
	}
	fams["isolated"] = iso

	return fams
}

// propertyCluster builds a cluster for one (budget, faults) cell.
func propertyCluster(budget int64, faulty bool) *engine.Cluster {
	opts := engine.Options{Segments: 4, MemoryBudget: budget}
	if faulty {
		opts.Faults = ChaosFaults
	}
	return engine.NewCluster(opts)
}

// TestPropertyAllAlgorithmsBudgetsFaults is the suite driver: per trial it
// draws one graph per family and checks, for every driver, that the
// labelling (a) canonicalizes to the Union/Find oracle's and (b) is
// bit-identical across every cell of the budget × fault matrix.
func TestPropertyAllAlgorithmsBudgetsFaults(t *testing.T) {
	// One trial is 240 algorithm runs (8 drivers × 6 families × 5
	// matrix cells); DBCC_PROPERTY_TRIALS raises the count for soak runs
	// without inflating every CI pass.
	trials := 1
	if n, err := strconv.Atoi(os.Getenv("DBCC_PROPERTY_TRIALS")); err == nil && n > 0 {
		trials = n
	}
	rng := xrand.New(20200420) // ICDE'20, why not
	for trial := 0; trial < trials; trial++ {
		for fam, g := range randomFamilies(rng.Split()) {
			oracle := Canonicalize(unionfind.Components(g))
			for _, info := range Drivers() {
				var ref graph.Labelling
				for _, cell := range propertyCells {
					ctxt := fmt.Sprintf("trial %d %s/%s cell=%s faults=%v",
						trial, info.Name, fam, cell.name, cell.faulty)
					c := propertyCluster(cell.budget, cell.faulty)
					if err := graph.Load(c, "input", g); err != nil {
						t.Fatal(err)
					}
					res, err := info.Run(c, "input", ccalg.Options{Seed: uint64(trial) + 7})
					if err != nil {
						t.Fatalf("%s: %v", ctxt, err)
					}
					canon := Canonicalize(res.Labels)
					if len(canon) != len(oracle) {
						t.Fatalf("%s: labelled %d vertices, oracle has %d",
							ctxt, len(canon), len(oracle))
					}
					for v, rep := range oracle {
						if canon[v] != rep {
							t.Fatalf("%s: vertex %d canonical label %d, oracle says %d",
								ctxt, v, canon[v], rep)
						}
					}
					if ref == nil {
						ref = res.Labels
					} else {
						SameLabelling(t, ctxt+" (vs first cell)", res.Labels, ref)
					}
					c.Close()
				}
			}
		}
	}
}

// TestPropertyBudgetedRunsSpill pins that the tight-budget cells of the
// property suite genuinely exercise the spilling paths — otherwise the
// budget axis would be vacuous.
func TestPropertyBudgetedRunsSpill(t *testing.T) {
	g := datagen.ErdosRenyi(120, 260, 5)
	var spilledSomewhere bool
	for _, info := range Drivers() {
		c := propertyCluster(1<<10, false)
		if err := graph.Load(c, "input", g); err != nil {
			t.Fatal(err)
		}
		if _, err := info.Run(c, "input", ccalg.Options{Seed: 5}); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if s := c.Stats(); s.SpilledBytes > 0 {
			spilledSomewhere = true
		}
		c.Close()
	}
	if !spilledSomewhere {
		t.Fatal("no algorithm spilled under the pathological budget; the property suite's budget axis is vacuous")
	}
}
