package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the definitions in this package")

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []contractLoad  `json:"workloads"`
	EndToEnd   []contractBound `json:"end_to_end"`
	PerLayer   []contractLayer `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantContract is BENCHMARK.json as this package defines it.
func wantContract() contract {
	c := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractLoad{w.name, w.why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractBound{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractLayer{m.Name, m.Unit, m.Better})
	}
	return c
}

// TestBenchmarkJSON keeps the contract file and the code's vocabulary in
// step, and checks the limits the driver refuses a file over.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", benchmarkJSON)
	want, err := json.MarshalIndent(wantContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with metrics.go/workload.go; run go test -run TestBenchmarkJSON -update", path)
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, over the 64 KiB limit", path, len(got))
	}
	c := wantContract()
	names := map[string]bool{}
	name := func(n string) {
		if names[n] || len(n) == 0 || len(n) > 64 || strings.Trim(n, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("name %q is repeated or outside the contract's alphabet", n)
		}
		names[n] = true
	}
	unit := func(u string) {
		if len(u) == 0 || len(u) > 16 || strings.Trim(u, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("unit %q is outside the contract's alphabet", u)
		}
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	for _, m := range c.EndToEnd {
		name(m.Name)
		unit(m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v", m.Name, m.Bound)
		}
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		unit(m.Unit)
	}
}

// operatorLayers are the engine.* self-time layers that, with
// engine.materialise_s, make up engine.stmt_s.
var operatorLayers = []string{
	"engine.scan_s", "engine.filter_project_s", "engine.join_s", "engine.groupby_s",
	"engine.distinct_s", "engine.sort_s", "engine.unionall_s", "engine.materialise_s",
}

// TestSmoke runs all six workloads at 1/50 size, interleaved as the full
// benchmark does, untraced and traced, and checks that every named metric
// comes out, that nothing failed, and that the layer times account for the
// statement time.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 7, seconds: 0.2, scale: 50, setupBudget: 50 * time.Millisecond}
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		for _, o := range runWorkloads(workloads, cfg, tr) {
			rec := newRecord(o, envInfo{}, cfg.seed, cfg.seconds, traced)
			if o.err != nil || !rec.Correct || rec.Failed != 0 {
				t.Fatalf("%s traced=%v: err=%v attempted=%d failed=%d", o.def.name, traced, o.err, rec.Attempted, rec.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", o.def.name, traced, len(rec.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s is missing", o.def.name, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", o.def.name, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", o.def.name, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", o.def.name, m.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			stmt := o.w.layer["engine.stmt_s"]
			if len(stmt) == 0 {
				t.Errorf("%s: no traced repetition recorded engine.stmt_s", o.def.name)
			}
			for k, want := range stmt {
				var sum float64
				for _, name := range operatorLayers {
					sum += o.w.layer[name][k]
				}
				if math.Abs(sum-want) > 0.01*want {
					t.Errorf("%s rep %d: operator self times + materialise = %v, engine.stmt_s = %v", o.def.name, k, sum, want)
				}
			}
			for k, v := range o.w.layer["ccalg.driver_s"] {
				if v < 0 {
					t.Errorf("%s rep %d: ccalg.driver_s = %v", o.def.name, k, v)
				}
			}
			// The CC workloads never touch the network layers.
			if strings.HasPrefix(o.def.name, "cc_") {
				for name, v := range rec.Metrics {
					if (strings.HasPrefix(name, "wire.") || strings.HasPrefix(name, "client.") ||
						strings.HasPrefix(name, "server.")) && v.Value != 0 {
						t.Errorf("%s: %s = %v, want 0", o.def.name, name, v.Value)
					}
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
	}{
		{5, 99, 50},      // too few samples for anything: the median
		{20, 99, 50},     // 10 beyond p50, 5 beyond p75
		{39, 99, 50},     // 9 beyond p75
		{40, 99, 75},     // exactly 10 beyond p75
		{100, 99, 90},    // 10 beyond p90, 5 beyond p95
		{200, 99, 95},    // 10 beyond p95
		{999, 99, 95},    // 9 beyond p99
		{1000, 99, 99},   // exactly 10 beyond p99
		{5000, 75, 75},   // the workload's cap wins over the sample count
		{30, 75, 50},     // and the sample rule over the cap
		{100000, 99, 99}, // nothing above the ladder's top
	} {
		if got := tailPercentile(c.n, c.want); got != c.p {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.p)
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 30, 20}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfSeconds(t *testing.T) {
	// root 0..100 ms; two overlapping children cover 10..60; one of them
	// has a grandchild 20..30; a third child overhangs the root's end.
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "child", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "child", Start: ms(30), End: ms(60)},
		{ID: 3, Parent: 1, Name: "leaf", Start: ms(20), End: ms(30)},
		{ID: 4, Parent: 0, Name: "late", Start: ms(90), End: ms(120)},
	}
	got := selfSeconds(spans)
	want := map[string]float64{"root": 0.040, "child": 0.050, "leaf": 0.010, "late": 0.030}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name       string
		base, cand []float64
		better     string
		verdict    string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, lower, verdictWorse},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, lower, verdictOK},
		{"less throughput", steady, []float64{80, 81, 79, 80, 80}, higher, verdictWorse},
		{"noisy", steady, []float64{70, 130, 100, 85, 115}, lower, verdictUnresolved},
	} {
		if _, got := judge(c.base, c.cand, c.better, 0.10); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
}
