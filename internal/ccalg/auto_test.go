package ccalg_test

import (
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/ccalg/conformance"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

// TestAutoGoldenDecisions pins the adaptive planner's choice per graph
// family. The table is golden on purpose: a change to the planner's rules
// or thresholds shows up here as a visible diff, not as a silent
// performance regression. The rationale per row: paths, grids and sparse
// random graphs have diameter beyond the probe's horizon (log-diameter
// wins); stars, bitcoin's and RMAT's heavy hubs trip the degree-skew rule
// (local contraction's hub exception wins); the dense friendster blobs
// converge inside the probe with no skew (deterministic contraction, the
// paper's best all-rounder); and a tight space budget overrides everything
// (two-phase has the flattest space profile).
func TestAutoGoldenDecisions(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opts ccalg.Options
		want string
	}{
		{"path", datagen.Path(2000), ccalg.Options{}, "ld"},
		{"pathunion", datagen.PathUnion(10, 2000), ccalg.Options{}, "ld"},
		{"star", datagen.Star(2000), ccalg.Options{}, "lc"},
		{"bitcoin", datagen.Bitcoin(2000, 7), ccalg.Options{}, "lc"},
		{"rmat", datagen.RMAT(11, 6000, 0.57, 0.19, 0.19, 0.05, 7), ccalg.Options{}, "lc"},
		{"friendster", datagen.Friendster(300, 3, 7), ccalg.Options{}, "rc-det"},
		{"erdosrenyi", datagen.ErdosRenyi(2000, 4000, 7), ccalg.Options{}, "ld"},
		{"image2d", datagen.Image2D(48, 48, 12, 0.3, 0.1, 7), ccalg.Options{}, "ld"},
		{"empty", graph.New(0), ccalg.Options{}, "rc-det"},
		{"tight-budget", datagen.Star(2000), ccalg.Options{MaxLiveBytes: 1}, "tp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := engine.NewCluster(engine.Options{Segments: 4})
			if err := graph.Load(c, "input", tc.g); err != nil {
				t.Fatal(err)
			}
			d, err := ccalg.PlanAlgorithm(c, "input", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if d.Algorithm != tc.want {
				t.Errorf("planned %q (%s), golden table says %q", d.Algorithm, d.Reason, tc.want)
			}
			if d.Reason == "" {
				t.Error("decision carries no reason")
			}
		})
	}
}

// TestAutoPrescanStats sanity-checks the statistics behind a decision on a
// graph whose exact shape is known: a 100-vertex star has 99 symmetric
// edge pairs, a hub of degree 99, and needs no probe.
func TestAutoPrescanStats(t *testing.T) {
	c := engine.NewCluster(engine.Options{Segments: 4})
	if err := graph.Load(c, "input", datagen.Star(100)); err != nil {
		t.Fatal(err)
	}
	d, err := ccalg.PlanAlgorithm(c, "input", ccalg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Prescan
	if p.Vertices != 100 || p.Edges != 198 || p.MaxDegree != 99 {
		t.Errorf("prescan V=%d E=%d maxdeg=%d, want 100/198/99", p.Vertices, p.Edges, p.MaxDegree)
	}
	if p.ProbeRounds != 0 || p.ProbeConverged {
		t.Errorf("probe ran (%d rounds) although the skew rule decides first", p.ProbeRounds)
	}
	if d.Algorithm != "lc" {
		t.Errorf("planned %q for a star", d.Algorithm)
	}
}

// TestAutoProbeReadsTempNamedInput plans a path stored under the names of
// the diameter probe's own temp tables: the probe must keep reading the
// caller's table after creating its temps, so the decision and the
// pre-scan match those for the same path under a neutral name.
func TestAutoProbeReadsTempNamedInput(t *testing.T) {
	plan := func(name string) ccalg.AutoDecision {
		c := engine.NewCluster(engine.Options{Segments: 4})
		defer c.Close()
		if err := graph.Load(c, name, datagen.Path(200)); err != nil {
			t.Fatal(err)
		}
		d, err := ccalg.PlanAlgorithm(c, name, ccalg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := plan("input")
	for _, name := range []string{"pb_l", "pb_e"} {
		if got := plan(name); got != want {
			t.Errorf("input %q planned %+v, want %+v", name, got, want)
		}
	}
}

// TestAutoRunsItsPlan checks the driver end to end on one graph per
// planned algorithm: Auto must run its plan and label correctly.
func TestAutoRunsItsPlan(t *testing.T) {
	for _, g := range []*graph.Graph{
		datagen.Path(500),             // plans ld
		datagen.Star(500),             // plans lc
		datagen.Friendster(120, 3, 7), // plans rc-det
	} {
		res, _ := conformance.RunOn(t, ccalg.Auto, g, ccalg.Options{Seed: 1})
		conformance.CheckCorrect(t, g, res)
	}
}

// TestAutoDecisionIgnoresEngineKnobs pins the reproducibility premise of
// the planner: decisions are a pure function of the graph and the run
// options, never of cluster tuning. A divergence would break the property
// matrix's bit-identical guarantee for Algorithm="auto".
func TestAutoDecisionIgnoresEngineKnobs(t *testing.T) {
	g := datagen.ErdosRenyi(500, 1000, 3)
	var ref string
	for _, opts := range []engine.Options{
		{Segments: 4},
		{Segments: 4, MemoryBudget: 8 << 10},
		{Segments: 16},
	} {
		c := engine.NewCluster(opts)
		defer c.Close()
		if err := graph.Load(c, "input", g); err != nil {
			t.Fatal(err)
		}
		d, err := ccalg.PlanAlgorithm(c, "input", ccalg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = d.Algorithm
		} else if d.Algorithm != ref {
			t.Fatalf("decision %q under %+v, but %q on the reference cluster", d.Algorithm, opts, ref)
		}
	}
}
