package ccalg_test

import (
	"errors"
	"fmt"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/ccalg/conformance"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

// The generic driver-contract tests (oracle equivalence over the corpus,
// determinism, cancellation, faults, budgets, round-stats invariants,
// cleanup, validation) live in the conformance package, which instantiates
// one shared suite for every driver. This file keeps the tests that are
// specific to individual algorithms: RC's randomisation methods, variants
// and complexity bounds, BFS's diameter behaviour, and Hash-to-Min's space
// blowup.

// TestRCMethodsAndVariants exercises every randomisation method × variant
// combination of Randomised Contraction.
func TestRCMethodsAndVariants(t *testing.T) {
	graphs := conformance.FamilyGraphs()
	for _, method := range []ccalg.Method{ccalg.FiniteFields, ccalg.GFPrime, ccalg.Encryption, ccalg.RandomReals} {
		for _, variant := range []ccalg.Variant{ccalg.Fast, ccalg.Safe} {
			for _, name := range []string{"pathunion", "rmat", "loops-only", "mixed"} {
				t.Run(fmt.Sprintf("%s/%s/%s", method, variant, name), func(t *testing.T) {
					g := graphs[name]
					res, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{
						Seed: 11, RC: ccalg.RCOptions{Method: method, Variant: variant}})
					conformance.CheckCorrect(t, g, res)
				})
			}
		}
	}
}

// TestRCSeeds runs RC across many seeds on one graph: the paper's central
// claim is that RC is always correct regardless of the random draws.
func TestRCSeeds(t *testing.T) {
	g := datagen.ErdosRenyi(80, 100, 21)
	for seed := uint64(0); seed < 12; seed++ {
		res, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{Seed: seed})
		conformance.CheckCorrect(t, g, res)
	}
}

// TestRCDeterministicForSeed checks reproducibility: same seed, same
// labelling, same round count.
func TestRCDeterministicForSeed(t *testing.T) {
	g := datagen.RMAT(8, 200, 0.57, 0.19, 0.19, 0.05, 1)
	a, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{Seed: 5})
	b, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{Seed: 5})
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for v, r := range a.Labels {
		if b.Labels[v] != r {
			t.Fatalf("labels differ at vertex %d", v)
		}
	}
}

// TestRCLogarithmicRounds checks the round count stays logarithmic on the
// adversarial sequentially numbered path, where deterministic contraction
// degrades to n−1 rounds (Fig. 2).
func TestRCLogarithmicRounds(t *testing.T) {
	g := datagen.Path(512)
	res, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{Seed: 3})
	conformance.CheckCorrect(t, g, res)
	// log2(512) = 9; with E[shrink] ≤ 3/4 the expected round count is
	// ≤ log_{4/3}(512) ≈ 22. Allow generous slack for variance.
	if res.Rounds > 40 {
		t.Fatalf("RC took %d rounds on a 512-path, expected O(log n)", res.Rounds)
	}
}

// TestBFSRoundsOnPath verifies the Sec. IV worst case: BFS takes ~n rounds
// on a sequentially numbered path.
func TestBFSRoundsOnPath(t *testing.T) {
	g := datagen.Path(40)
	res, _ := conformance.RunOn(t, ccalg.BFS, g, ccalg.Options{})
	conformance.CheckCorrect(t, g, res)
	if res.Rounds < 20 {
		t.Fatalf("BFS took %d rounds on a 40-path; the worst case should be ~n", res.Rounds)
	}
}

// TestFrontierRoundsOnPath pins what the frontier drivers were built for:
// on the same sequentially numbered path that costs BFS ~n rounds and
// deterministic contraction n−1, Local Contraction and Log-Diameter
// converge in a handful of outer rounds (the per-round pointer doubling
// collapses whole chains).
func TestFrontierRoundsOnPath(t *testing.T) {
	g := datagen.Path(4096)
	for _, name := range []string{"lc", "ld"} {
		info, _ := ccalg.ByName(name)
		res, _ := conformance.RunOn(t, info.Run, g, ccalg.Options{})
		conformance.CheckCorrect(t, g, res)
		if res.Rounds > 24 {
			t.Fatalf("%s took %d rounds on a 4096-path, expected far below the %d of contraction",
				name, res.Rounds, g.NumVertices()-1)
		}
	}
}

// TestLogDiameterExpansionBounded pins the budgeted-exponentiation
// contract: the live edge set Log-Diameter reports never exceeds
// the expansion cap times the symmetrised input's edge count.
func TestLogDiameterExpansionBounded(t *testing.T) {
	g := datagen.ErdosRenyi(300, 500, 17)
	res, _ := conformance.RunOn(t, ccalg.LogDiameter, g, ccalg.Options{})
	conformance.CheckCorrect(t, g, res)
	input := int64(0)
	seen := map[[2]int64]bool{}
	for _, e := range g.Edges {
		if e.V == e.W {
			continue
		}
		for _, d := range [][2]int64{{e.V, e.W}, {e.W, e.V}} {
			if !seen[d] {
				seen[d] = true
				input++
			}
		}
	}
	for _, rs := range res.RoundLog {
		if rs.LiveEdges > 4*input {
			t.Fatalf("round %d reports %d live edges, over 4× the input's %d: the expansion cap leaked",
				rs.Round, rs.LiveEdges, input)
		}
	}
}

// TestHashToMinSpaceBlowup reproduces the paper's observation that
// Hash-to-Min exhausts storage on path graphs: with a budget proportional
// to the input it must fail on a long path but succeed on a compact graph.
func TestHashToMinSpaceBlowup(t *testing.T) {
	path := datagen.Path(3000)
	c := engine.NewCluster(engine.Options{Segments: 4})
	if err := graph.Load(c, "input", path); err != nil {
		t.Fatal(err)
	}
	inputBytes := int64(path.NumEdges()) * 2 * engine.DatumSize
	_, err := ccalg.HashToMin(c, "input", ccalg.Options{MaxLiveBytes: 24 * inputBytes})
	if !errors.Is(err, ccalg.ErrSpaceLimit) {
		t.Fatalf("Hash-to-Min on a path: err = %v, want ErrSpaceLimit", err)
	}

	star := datagen.Star(3000)
	c2 := engine.NewCluster(engine.Options{Segments: 4})
	if err := graph.Load(c2, "input", star); err != nil {
		t.Fatal(err)
	}
	starBytes := int64(star.NumEdges()) * 2 * engine.DatumSize
	res, err := ccalg.HashToMin(c2, "input", ccalg.Options{MaxLiveBytes: 24 * starBytes})
	if err != nil {
		t.Fatalf("Hash-to-Min on a star failed: %v", err)
	}
	conformance.CheckCorrect(t, star, res)
}

// TestRCSafeSpaceBounded: the Fig. 3 variant's live space must stay within
// a small constant of the input, deterministically.
func TestRCSafeSpaceBounded(t *testing.T) {
	g := datagen.ErdosRenyi(2000, 6000, 2)
	c := engine.NewCluster(engine.Options{Segments: 4})
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatal(err)
	}
	inputBytes := c.Stats().LiveBytes
	res, err := ccalg.RandomisedContraction(c, "input", ccalg.Options{
		Seed: 1, RC: ccalg.RCOptions{Variant: ccalg.Safe},
		// Sec. II: temporary storage ≤ 4× input + O(|V|); the budget below
		// allows the 2× symmetrised table, its transient copy, and the two
		// O(|V|) label tables.
		MaxLiveBytes: 6*inputBytes + 4*int64(g.NumVertices())*2*engine.DatumSize,
	})
	if err != nil {
		t.Fatalf("Safe variant exceeded the deterministic space bound: %v", err)
	}
	conformance.CheckCorrect(t, g, res)
}

// TestNoRerandomiseStillCorrect: ablation A3 — reusing one key is slower
// (it recreates Fig. 2's worst case adversarially) but never incorrect.
func TestNoRerandomiseStillCorrect(t *testing.T) {
	g := datagen.Path(200)
	res, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{
		Seed: 9, RC: ccalg.RCOptions{NoRerandomise: true}})
	conformance.CheckCorrect(t, g, res)
}

// TestDeterministicAcrossRunsAndSegments pins the reproducibility contract
// for every algorithm of the paper's evaluation plus the frontier drivers
// and the planner: with a fixed seed the labelling (not merely the
// partition it induces) is identical across repeated runs AND across
// segment counts. Segment count is physical data placement; it must never
// leak into results.
func TestDeterministicAcrossRunsAndSegments(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":      datagen.RMAT(7, 160, 0.57, 0.19, 0.19, 0.05, 11),
		"pathunion": datagen.PathUnion(3, 50),
	}
	for _, algName := range []string{"rc", "hm", "tp", "cr", "lc", "ld", "auto"} {
		info, ok := ccalg.ByName(algName)
		if !ok {
			t.Fatalf("unknown algorithm %q", algName)
		}
		for gName, g := range graphs {
			var ref graph.Labelling
			var refRounds int
			for _, segs := range []int{1, 4, 16} {
				for rep := 0; rep < 2; rep++ {
					c := engine.NewCluster(engine.Options{Segments: segs})
					ccalg.RegisterUDFs(c)
					if err := graph.Load(c, "input", g); err != nil {
						t.Fatal(err)
					}
					res, err := info.Run(c, "input", ccalg.Options{Seed: 42})
					if err != nil {
						t.Fatalf("%s/%s segs=%d rep=%d: %v", algName, gName, segs, rep, err)
					}
					if ref == nil {
						conformance.CheckCorrect(t, g, res)
						ref, refRounds = res.Labels, res.Rounds
						continue
					}
					if res.Rounds != refRounds {
						t.Errorf("%s/%s segs=%d rep=%d: %d rounds, reference run took %d",
							algName, gName, segs, rep, res.Rounds, refRounds)
					}
					if len(res.Labels) != len(ref) {
						t.Fatalf("%s/%s segs=%d rep=%d: %d labelled vertices, reference has %d",
							algName, gName, segs, rep, len(res.Labels), len(ref))
					}
					for v, lab := range res.Labels {
						if want, ok := ref[v]; !ok || lab != want {
							t.Fatalf("%s/%s segs=%d rep=%d: vertex %d labelled %d, reference says %d",
								algName, gName, segs, rep, v, lab, want)
						}
					}
				}
			}
		}
	}
}

// TestLiveBytesMatchesCatalogAfterDrivers runs every registered driver and
// the planner in turn on one cluster and checks the engine's one
// accounting rule after each: LiveBytes equals the bytes of the tables
// left in the catalog, so no driver's temp tables leak space or are
// released twice.
func TestLiveBytesMatchesCatalogAfterDrivers(t *testing.T) {
	g := datagen.RMAT(7, 160, 0.57, 0.19, 0.19, 0.05, 3)
	c := engine.NewCluster(engine.Options{Segments: 4})
	defer c.Close()
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatal(err)
	}
	for _, info := range append(ccalg.Algorithms(), ccalg.AutoInfo()) {
		res, err := info.Run(c, "input", ccalg.Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		conformance.CheckCorrect(t, g, res)
		var sum int64
		for _, name := range c.TableNames() {
			tab, _ := c.Table(name)
			sum += tab.Bytes()
		}
		if live := c.Stats().LiveBytes; live != sum {
			t.Fatalf("after %s: LiveBytes = %d, catalog holds %d bytes (%v)", info.Name, live, sum, c.TableNames())
		}
	}
}
