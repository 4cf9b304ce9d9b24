package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// sampleBenchOutput is a realistic `go test -bench -benchmem` transcript:
// header lines, GOMAXPROCS suffixes, and a trailing PASS.
const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: dbcc/internal/engine
cpu: Some CPU @ 2.10GHz
BenchmarkKernelJoinProbe/kernel/n=4096-8         	    3564	    308466 ns/op	  775376 B/op	      90 allocs/op
BenchmarkKernelJoinProbe/rows/n=4096-8           	    1426	    847269 ns/op	 1205608 B/op	    7075 allocs/op
BenchmarkKernelRadixPartition/kernel/wide/n=65536-8 	    3385	    344443 ns/op	    2208 B/op	      28 allocs/op
BenchmarkKernelRadixPartition/counting/wide/n=65536-8 	     934	   1202334 ns/op	 2140288 B/op	      35 allocs/op
PASS
ok  	dbcc/internal/engine	28.586s
`

func TestParseGoBench(t *testing.T) {
	results := ParseGoBench(sampleBenchOutput)
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %v", len(results), results)
	}
	r, ok := results["BenchmarkKernelJoinProbe/kernel/n=4096"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", results)
	}
	if len(r) != 1 || r[0].NsPerOp != 308466 || r[0].BytesPerOp != 775376 || r[0].AllocsPerOp != 90 {
		t.Fatalf("parsed %+v", r)
	}
}

// repeatedBenchOutput is a -count=5 run of a ratio-gated pair: the kernel
// runs near 0.3× its baseline, except one sample a noisy host slowed to
// 1.2×, and one sample of the kernel allocates more than the others.
const repeatedBenchOutput = `BenchmarkKernelGroupByMin/segment/n=65536-2 	 100	 300000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/uniform/n=65536-2 	 100	1000000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/segment/n=65536-2 	 100	1200000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/uniform/n=65536-2 	 100	1000000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/segment/n=65536-2 	 100	 310000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/uniform/n=65536-2 	 100	 990000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/segment/n=65536-2 	 100	 290000 ns/op	 1000 B/op	 19 allocs/op
BenchmarkKernelGroupByMin/uniform/n=65536-2 	 100	1010000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/segment/n=65536-2 	 100	 305000 ns/op	 1000 B/op	 12 allocs/op
BenchmarkKernelGroupByMin/uniform/n=65536-2 	 100	1000000 ns/op	 1000 B/op	 12 allocs/op
`

// TestMicroBaselineCheckSamples pins how the gate reads repeated samples:
// a ratio compares the two sides' medians, so one outlier passes and a
// median over the bound fails, while allocs/op is held to every sample.
func TestMicroBaselineCheckSamples(t *testing.T) {
	results := ParseGoBench(repeatedBenchOutput)
	if n := len(results["BenchmarkKernelGroupByMin/segment/n=65536"]); n != 5 {
		t.Fatalf("kept %d samples, want 5", n)
	}
	gate := func(max float64) []NsRatioGate {
		return []NsRatioGate{{
			Name:        "segment vs uniform",
			Numerator:   "BenchmarkKernelGroupByMin/segment/n=65536",
			Denominator: "BenchmarkKernelGroupByMin/uniform/n=65536",
			Max:         max,
		}}
	}
	// The outlier alone reads 1.2, over the bound; the medians read 0.30.
	if err := (&MicroBaseline{Tolerance: 0.15, NsRatios: gate(0.5)}).Check(results); err != nil {
		t.Fatalf("one outlier sample failed the median gate: %v", err)
	}
	if err := (&MicroBaseline{Tolerance: 0.15, NsRatios: gate(0.25)}).Check(results); err == nil || !strings.Contains(err.Error(), "ratio 0.30") {
		t.Fatalf("a median ratio of 0.30 passed a 0.25 gate: %v", err)
	}
	// Four samples allocate 12 and one 19: 19 > 12 × 1.15 fails.
	allocs := &MicroBaseline{Tolerance: 0.15, AllocsPerOp: map[string]int64{"BenchmarkKernelGroupByMin/segment/n=65536": 12}}
	if err := allocs.Check(results); err == nil || !strings.Contains(err.Error(), "19 allocs/op") {
		t.Fatalf("an over-allocating sample passed the gate: %v", err)
	}
	allocs.AllocsPerOp = map[string]int64{"BenchmarkKernelGroupByMin/uniform/n=65536": 12}
	if err := allocs.Check(results); err != nil {
		t.Fatalf("samples at the baseline failed: %v", err)
	}
}

// TestMicroBaselineCheckBytes pins the B/op gate: like allocs/op it is
// held to the largest sample within the tolerance, and a gated benchmark
// missing from the run fails.
func TestMicroBaselineCheckBytes(t *testing.T) {
	results := ParseGoBench(sampleBenchOutput + `BenchmarkKernelRCRound-2 	 100	 300000 ns/op	 2000000 B/op	 900 allocs/op
BenchmarkKernelRCRound-2 	 100	 300000 ns/op	 2400000 B/op	 900 allocs/op
`)
	gate := func(name string, want int64) *MicroBaseline {
		return &MicroBaseline{Tolerance: 0.15, BytesPerOp: map[string]int64{name: want}}
	}
	if err := gate("BenchmarkKernelRCRound", 2100000).Check(results); err != nil {
		t.Fatalf("2.4 MB/op within 15%% of 2.1 MB failed: %v", err)
	}
	if err := gate("BenchmarkKernelRCRound", 2000000).Check(results); err == nil || !strings.Contains(err.Error(), "2400000 B/op") {
		t.Fatalf("a 2.4 MB/op sample passed a 2.0 MB +15%% gate: %v", err)
	}
	if err := gate("BenchmarkKernelStatementTP", 1).Check(results); err == nil || !strings.Contains(err.Error(), "no result") {
		t.Fatalf("a gated benchmark missing from the run passed: %v", err)
	}
}

func TestMicroBaselineCheck(t *testing.T) {
	results := ParseGoBench(sampleBenchOutput)
	good := &MicroBaseline{
		Tolerance: 0.15,
		AllocsPerOp: map[string]int64{
			"BenchmarkKernelJoinProbe/kernel/n=4096": 90,
		},
		NsRatios: []NsRatioGate{{
			Name:        "radix vs counting",
			Numerator:   "BenchmarkKernelRadixPartition/kernel/wide/n=65536",
			Denominator: "BenchmarkKernelRadixPartition/counting/wide/n=65536",
			Max:         0.5,
		}},
	}
	if err := good.Check(results); err != nil {
		t.Fatalf("matching baseline failed: %v", err)
	}

	// An allocation regression beyond the tolerance fails.
	tight := &MicroBaseline{
		Tolerance:   0.15,
		AllocsPerOp: map[string]int64{"BenchmarkKernelJoinProbe/kernel/n=4096": 70},
	}
	if err := tight.Check(results); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("29%% alloc regression passed the 15%% gate: %v", err)
	}

	// A ratio gate the measured speedup no longer clears fails.
	slow := &MicroBaseline{
		Tolerance: 0.15,
		NsRatios: []NsRatioGate{{
			Name:        "radix vs counting",
			Numerator:   "BenchmarkKernelRadixPartition/kernel/wide/n=65536",
			Denominator: "BenchmarkKernelRadixPartition/counting/wide/n=65536",
			Max:         0.1,
		}},
	}
	if err := slow.Check(results); err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Fatalf("a 0.29 ratio passed a 0.1 gate: %v", err)
	}

	// A gated benchmark missing from the run is itself a failure — renames
	// must not silently disarm the gate.
	missing := &MicroBaseline{
		Tolerance:   0.15,
		AllocsPerOp: map[string]int64{"BenchmarkKernelRenamed/kernel/n=1": 1},
	}
	if err := missing.Check(results); err == nil {
		t.Fatal("missing benchmark passed the gate")
	}
}

// TestLoadCommittedMicroBaseline keeps the committed baseline file well
// formed: it must load, gate the radix-vs-counting hot loop at ≤0.5 (the
// shuffle kernel's 2× acceptance bar), and cover the join-probe and
// group-by alloc counts.
func TestLoadCommittedMicroBaseline(t *testing.T) {
	b, err := LoadMicroBaseline(filepath.Join("testdata", "microbench_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Tolerance <= 0 || len(b.AllocsPerOp) == 0 || len(b.NsRatios) == 0 {
		t.Fatalf("committed micro baseline is degenerate: %+v", b)
	}
	var radix *NsRatioGate
	for i := range b.NsRatios {
		if strings.Contains(b.NsRatios[i].Numerator, "RadixPartition/kernel/wide") {
			radix = &b.NsRatios[i]
		}
	}
	if radix == nil || radix.Max > 0.5 {
		t.Fatalf("committed baseline does not pin the radix hot loop at 2x: %+v", b.NsRatios)
	}
	for _, name := range []string{
		"BenchmarkKernelJoinProbe/kernel/n=65536",
		"BenchmarkKernelGroupByMin/kernel/n=65536",
	} {
		if _, ok := b.AllocsPerOp[name]; !ok {
			t.Fatalf("committed baseline does not gate %s allocs", name)
		}
	}
}
