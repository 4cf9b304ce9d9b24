package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/xrand"
)

// quickConfig is a fast configuration for unit-testing the harness.
func quickConfig() Config {
	return Config{Options: engine.Options{Segments: 4}, Scale: 0.05, Reps: 1, Seed: 7, CapacityFactor: 0, Verify: true}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 12 {
		t.Fatalf("registry has %d datasets, want 12 (Table II)", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %q", d.Name)
		}
		names[d.Name] = true
		g := d.Gen(0.05, 1)
		if g.NumEdges() == 0 {
			t.Fatalf("%s generated an empty graph", d.Name)
		}
	}
	if _, ok := DatasetByName("Andromeda"); !ok {
		t.Fatal("DatasetByName failed")
	}
	if _, ok := DatasetByName("nope"); ok {
		t.Fatal("DatasetByName accepted unknown name")
	}
}

func TestDatasetDeterminism(t *testing.T) {
	for _, d := range Datasets() {
		a := d.Gen(0.05, 3)
		b := d.Gen(0.05, 3)
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s not deterministic: %d vs %d edges", d.Name, a.NumEdges(), b.NumEdges())
		}
		if a.NumEdges() > 0 && a.Edges[0] != b.Edges[0] {
			t.Fatalf("%s not deterministic in content", d.Name)
		}
	}
}

func TestRunOneCell(t *testing.T) {
	cfg := quickConfig()
	ds, _ := DatasetByName("RMAT")
	alg, _ := ccalg.ByName("rc")
	o := Run(ds, alg, cfg, 0)
	if o.Err != nil || o.DNF {
		t.Fatalf("outcome: %+v", o)
	}
	if o.MeanSecs <= 0 || o.Rounds == 0 || o.Components == 0 || o.InputBytes == 0 {
		t.Fatalf("metrics not populated: %+v", o)
	}
}

func TestRunDNF(t *testing.T) {
	cfg := quickConfig()
	ds, _ := DatasetByName("Path100M")
	alg, _ := ccalg.ByName("hm")
	o := Run(ds, alg, cfg, 1<<20) // 1 MiB wall
	if !o.DNF {
		t.Fatalf("Hash-to-Min on a path under a 1 MiB wall did not DNF: %+v", o)
	}
}

func TestMeanStddev(t *testing.T) {
	m, s := meanStddev(nil)
	if m != 0 || s != 0 {
		t.Fatal("empty input")
	}
	m, s = meanStddev([]float64{5})
	if m != 5 || s != 0 {
		t.Fatal("single input")
	}
	m, s = meanStddev([]float64{1, 2, 3})
	if m != 2 || s <= 0.9 || s >= 1.1 {
		t.Fatalf("mean %v stddev %v", m, s)
	}
	o := Outcome{MeanSecs: 2, StddevSecs: 0.1}
	if r := o.RelStddev(); r != 5 {
		t.Fatalf("rel stddev %v", r)
	}
}

func TestTables12Render(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	for _, want := range []string{"Randomised Contraction", "Hash-to-Min", "Two-Phase", "Cracker", "O(log |V|)"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table1 missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	Table2(&buf, quickConfig())
	for _, want := range []string{"Andromeda", "PathUnion10", "components"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table2 missing %q", want)
		}
	}
}

// TestMiniCampaign runs the Tables III–V pipeline end to end at tiny scale
// on two datasets by reusing the cell runner and formatters.
func TestMiniCampaign(t *testing.T) {
	cfg := quickConfig()
	camp := &Campaign{Config: cfg}
	for _, name := range []string{"RMAT", "PathUnion10"} {
		ds, _ := DatasetByName(name)
		for _, alg := range TableAlgorithms() {
			camp.Cells = append(camp.Cells, Run(ds, alg, cfg, 0))
		}
	}
	var buf bytes.Buffer
	Table3(&buf, camp)
	Table4(&buf, camp)
	Table5(&buf, camp)
	Figure6(&buf, camp)
	out := buf.String()
	for _, want := range []string{"TABLE III", "TABLE IV", "TABLE V", "FIGURE 6", "RMAT", "PathUnion10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign output missing %q", want)
		}
	}
	if strings.Contains(out, "ERR") {
		t.Fatalf("campaign reported an error:\n%s", out)
	}
	// Every completed cell must be verified (cfg.Verify) and have data.
	for _, o := range camp.Cells {
		if o.Err != nil {
			t.Fatalf("cell %s/%s error: %v", o.Dataset, o.Algorithm, o.Err)
		}
	}
}

func TestFigure5Render(t *testing.T) {
	var buf bytes.Buffer
	Figure5(&buf, quickConfig())
	out := buf.String()
	if !strings.Contains(out, "Andromeda") || !strings.Contains(out, "Bitcoin addresses") {
		t.Fatalf("Figure5 output incomplete:\n%s", out)
	}
}

func TestMeasureGammaBounds(t *testing.T) {
	// Statistical check of Thm 1 / App. B on random graphs: E[γ] ≤ 3/4
	// for the affine method, ≤ 2/3 under full randomisation (with noise
	// margins).
	rng := xrand.New(5)
	var ff, fr float64
	const trials = 30
	for i := 0; i < trials; i++ {
		g, _ := DatasetByName("RMAT")
		gg := g.Gen(0.02, rng.Uint64())
		ff += MeasureGamma(gg, rng, false)
		fr += MeasureGamma(gg, rng, true)
	}
	ff /= trials
	fr /= trials
	if ff > 0.78 {
		t.Fatalf("finite-field γ = %.3f exceeds 3/4 bound", ff)
	}
	if fr > 0.70 {
		t.Fatalf("full-random γ = %.3f exceeds 2/3 bound", fr)
	}
}

func TestExperimentsRender(t *testing.T) {
	cfg := quickConfig()
	var buf bytes.Buffer
	GammaExperiment(&buf, 3, 1)
	if !strings.Contains(buf.String(), "γ") {
		t.Fatal("gamma experiment produced no output")
	}
	buf.Reset()
	VariantsExperiment(&buf, cfg)
	if !strings.Contains(buf.String(), "fig3-safe") || strings.Contains(buf.String(), "error") {
		t.Fatalf("variants experiment output:\n%s", buf.String())
	}
	buf.Reset()
	MethodsExperiment(&buf, cfg)
	for _, m := range []string{"finite-fields", "gf-prime", "encryption", "random-reals"} {
		if !strings.Contains(buf.String(), m) {
			t.Fatalf("methods experiment missing %s:\n%s", m, buf.String())
		}
	}
	buf.Reset()
	SegmentsExperiment(&buf, cfg)
	if strings.Contains(buf.String(), "error") {
		t.Fatalf("segments experiment:\n%s", buf.String())
	}
}

// TestTransactionExperimentUsesClusterFlags checks A7 builds its
// clusters from the campaign configuration: a 1ns per-statement deadline
// must fail every algorithm's run and show up as error lines.
func TestTransactionExperimentUsesClusterFlags(t *testing.T) {
	cfg := quickConfig()
	cfg.QueryTimeout = time.Nanosecond
	var buf bytes.Buffer
	TransactionExperiment(&buf, cfg)
	if got := strings.Count(buf.String(), "error: "); got != len(TableAlgorithms()) {
		t.Fatalf("want one error line per algorithm under a 1ns timeout, got %d:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), context.DeadlineExceeded.Error()) {
		t.Fatalf("error lines do not name the deadline:\n%s", buf.String())
	}
}

// TestConcurrencyExperimentUsesClusterFlags is the E11 counterpart: the
// shared cluster honours the campaign's per-statement deadline, so the
// first solo session fails.
func TestConcurrencyExperimentUsesClusterFlags(t *testing.T) {
	cfg := quickConfig()
	cfg.QueryTimeout = time.Nanosecond
	var buf bytes.Buffer
	ConcurrencyExperiment(&buf, cfg, 2)
	if !strings.Contains(buf.String(), "solo session 0: ") ||
		!strings.Contains(buf.String(), context.DeadlineExceeded.Error()) {
		t.Fatalf("want a solo-session deadline error under a 1ns timeout:\n%s", buf.String())
	}
}

func TestSquaringBlowup(t *testing.T) {
	// Sec. IV: on a path, iterated squaring must pass through a state with
	// far more edges than the input (quadratic blow-up).
	g := datagen.Path(128)
	maxEdges := squaringMaxEdges(g)
	if maxEdges < 20*g.NumEdges() {
		t.Fatalf("squaring peak %d edges on a %d-edge path; expected a quadratic blow-up",
			maxEdges, g.NumEdges())
	}
}

func TestAppendixBCensus(t *testing.T) {
	rng := xrand.New(3)
	// Directed 3-cycle: Thm 2's tight case — every labelling yields
	// exactly 2 representatives, so E[reps]/n = 2/3 exactly.
	out := [][]int64{{1}, {2}, {0}}
	const trials = 2000
	reps := 0
	for i := 0; i < trials; i++ {
		_, _, _, r := typeCensus(out, rng)
		reps += r
	}
	if got := float64(reps) / trials / 3; got < 0.666 || got > 0.667 {
		t.Fatalf("3-cycle E[reps]/n = %.4f, want exactly 2/3", got)
	}
	// Lemma 1 on random functional graphs: E[type1] ≤ E[type0] (allowing
	// sampling noise).
	var rt0, rt1 float64
	for i := 0; i < 500; i++ {
		outR := make([][]int64, 20)
		for v := range outR {
			w := int64(rng.Uint64n(20))
			for w == int64(v) {
				w = int64(rng.Uint64n(20))
			}
			outR[v] = []int64{w}
		}
		a, b, _, _ := typeCensus(outR, rng)
		rt0 += float64(a)
		rt1 += float64(b)
	}
	if rt1 > rt0*1.02 {
		t.Fatalf("Lemma 1 violated: E[type1]=%.2f > E[type0]=%.2f", rt1/500, rt0/500)
	}
}

func TestAppendixBExperimentRenders(t *testing.T) {
	var buf bytes.Buffer
	AppendixBExperiment(&buf, 200, 1)
	if !strings.Contains(buf.String(), "directed-3-cycle") {
		t.Fatalf("appendix B experiment:\n%s", buf.String())
	}
}

func TestNaiveExperimentRenders(t *testing.T) {
	var buf bytes.Buffer
	NaiveExperiment(&buf, quickConfig())
	if !strings.Contains(buf.String(), "BFS rounds") || strings.Contains(buf.String(), "error") {
		t.Fatalf("naive experiment:\n%s", buf.String())
	}
}
