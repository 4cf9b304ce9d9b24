// Benchmarks regenerating the paper's evaluation artefacts, one per table
// and figure (plus the ablations), at a reduced scale so `go test -bench=.`
// completes in minutes. The full-scale campaign behind EXPERIMENTS.md is
// `go run ./cmd/ccbench -all`.
package dbcc

import (
	"fmt"
	"io"
	"testing"

	"dbcc/internal/bench"
	"dbcc/internal/engine"
	"dbcc/internal/xrand"
)

// benchConfig is the reduced-scale configuration for testing.B runs.
func benchConfig() bench.Config {
	return bench.Config{Options: engine.Options{Segments: 8}, Scale: 0.1, Reps: 1, Seed: 2019, CapacityFactor: 0, Verify: false}
}

// BenchmarkTable1 renders the complexity summary (trivial, kept so every
// table has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

// BenchmarkTable2 generates the full dataset inventory.
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, cfg)
	}
}

// BenchmarkTable3 runs one (dataset × algorithm) runtime cell per
// sub-benchmark — the cells of Table III (and the bars of Figure 6).
// Hash-to-Min and Cracker on Path100M are the paper's blow-up cells; they
// run under the storage wall and are reported as DNF.
func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig()
	wall := int64(256 << 20)
	for _, dsName := range []string{"Andromeda", "Bitcoin addresses", "Bitcoin full",
		"Candels10", "Candels20", "Candels40", "Candels80", "Candels160",
		"Friendster", "RMAT", "Path100M", "PathUnion10"} {
		ds, ok := bench.DatasetByName(dsName)
		if !ok {
			b.Fatalf("unknown dataset %s", dsName)
		}
		for _, alg := range bench.TableAlgorithms() {
			b.Run(fmt.Sprintf("%s/%s", dsName, alg.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := bench.Run(ds, alg, cfg, wall)
					if o.Err != nil {
						b.Fatal(o.Err)
					}
					if o.DNF {
						b.ReportMetric(1, "dnf")
						return
					}
					b.ReportMetric(float64(o.Rounds), "rounds")
				}
			})
		}
	}
}

// BenchmarkTable4 measures peak intermediate space per algorithm on one
// representative dataset (Table IV's metric).
func BenchmarkTable4(b *testing.B) {
	cfg := benchConfig()
	ds, _ := bench.DatasetByName("Candels40")
	for _, alg := range bench.TableAlgorithms() {
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := bench.Run(ds, alg, cfg, 0)
				if o.Err != nil {
					b.Fatal(o.Err)
				}
				b.ReportMetric(float64(o.PeakBytes)/(1<<20), "peakMiB")
			}
		})
	}
}

// BenchmarkTable5 measures total data written per algorithm (Table V).
func BenchmarkTable5(b *testing.B) {
	cfg := benchConfig()
	ds, _ := bench.DatasetByName("Candels40")
	for _, alg := range bench.TableAlgorithms() {
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := bench.Run(ds, alg, cfg, 0)
				if o.Err != nil {
					b.Fatal(o.Err)
				}
				b.ReportMetric(float64(o.Written)/(1<<20), "writtenMiB")
			}
		})
	}
}

// BenchmarkFigure5 regenerates the component-size distributions.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		bench.Figure5(io.Discard, cfg)
	}
}

// BenchmarkFigure6 renders the runtime bars from a mini-campaign.
func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	camp := &bench.Campaign{Config: cfg}
	ds, _ := bench.DatasetByName("RMAT")
	for _, alg := range bench.TableAlgorithms() {
		camp.Cells = append(camp.Cells, bench.Run(ds, alg, cfg, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Figure6(io.Discard, camp)
	}
}

// BenchmarkGamma measures one contraction round (experiment E8).
func BenchmarkGamma(b *testing.B) {
	ds, _ := bench.DatasetByName("RMAT")
	g := ds.Gen(0.1, 1)
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		bench.MeasureGamma(g, rng, false)
	}
}

// BenchmarkRCVariants compares the Fig. 3 and Fig. 4 variants (A1).
func BenchmarkRCVariants(b *testing.B) {
	g := GenerateVideo3D(32, 18, 30, 3)
	for _, variant := range []Variant{Fast, Safe} {
		b.Run(fmt.Sprint(variant), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := Open(Config{})
				if _, err := db.ConnectedComponents(g, Params{Seed: 1, Variant: variant}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRCMethods compares the four randomisation methods (A2).
func BenchmarkRCMethods(b *testing.B) {
	g := GenerateVideo3D(32, 18, 30, 3)
	for _, method := range []Method{FiniteFields, GFPrime, Encryption, RandomReals} {
		b.Run(fmt.Sprint(method), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := Open(Config{})
				if _, err := db.ConnectedComponents(g, Params{Seed: 1, Method: method}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparkProfile compares the MPP and Spark SQL execution profiles
// (experiment E7, Sec. VII-C).
func BenchmarkSparkProfile(b *testing.B) {
	g := GenerateVideo3D(32, 18, 20, 3)
	for _, profile := range []Profile{ProfileMPP, ProfileSparkSQL} {
		name := "mpp"
		if profile == ProfileSparkSQL {
			name = "sparksql"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := Open(Config{Profile: profile})
				if _, err := db.ConnectedComponents(g, Params{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSegments measures MPP parallelism scaling (A4).
func BenchmarkSegments(b *testing.B) {
	g := GenerateVideo3D(32, 18, 30, 3)
	for _, segs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("segments-%d", segs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := Open(Config{Segments: segs})
				if _, err := db.ConnectedComponents(g, Params{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequentialUnionFind is the single-machine baseline the paper's
// introduction motivates against.
func BenchmarkSequentialUnionFind(b *testing.B) {
	ds, _ := bench.DatasetByName("RMAT")
	g := ds.Gen(0.1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SequentialComponents(g)
	}
}

// BenchmarkRCRounds measures the O(log n) round growth (E9) as a benchmark
// metric.
func BenchmarkRCRounds(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("path-%d", n), func(b *testing.B) {
			g := GeneratePath(n)
			var rounds int
			for i := 0; i < b.N; i++ {
				db := Open(Config{})
				res, err := db.ConnectedComponents(g, Params{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}
