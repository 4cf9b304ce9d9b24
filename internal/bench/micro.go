package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Microbenchmark regression gate: parse `go test -bench` output and check
// it against a committed baseline. Two kinds of gate keep the check
// meaningful on arbitrary CI machines:
//
//   - allocs/op and B/op are deterministic for a given implementation,
//     so they are gated per benchmark against an absolute expected value
//     (with the baseline tolerance absorbing benign drift from pool
//     warmup);
//   - ns/op is machine-dependent, so wall time is gated only as a *ratio*
//     between two benchmarks of the same run (the columnar kernel vs the
//     row-at-a-time or counting baseline it replaced). The ratio cancels
//     the machine and pins the relative speedup — the radix-vs-counting
//     entry, for example, enforces the shuffle kernel's ≥2× win on every
//     run.
//
// A run may repeat each benchmark (-count=N). Every sample is kept: a
// ratio is taken between the two sides' median ns/op, so one sample a
// noisy host slowed does not fail the gate, and allocs/op and B/op are
// gated on the largest sample, so no sample may over-allocate.

// MicroResult is one parsed benchmark line.
type MicroResult struct {
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// ParseGoBench parses `go test -bench -benchmem` output into every sample
// of each benchmark, in output order, keyed by benchmark name. The
// trailing GOMAXPROCS suffix ("-8") is stripped so names are stable
// across machines; non-benchmark lines are ignored.
func ParseGoBench(text string) map[string][]MicroResult {
	out := map[string][]MicroResult{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r MicroResult
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if f, err := strconv.ParseFloat(val, 64); err == nil {
					r.NsPerOp = f
					seen = true
				}
			case "B/op":
				if n, err := strconv.ParseInt(val, 10, 64); err == nil {
					r.BytesPerOp = n
				}
			case "allocs/op":
				if n, err := strconv.ParseInt(val, 10, 64); err == nil {
					r.AllocsPerOp = n
				}
			}
		}
		if seen {
			out[name] = append(out[name], r)
		}
	}
	return out
}

// NsRatioGate demands ns/op(Numerator) <= Max × ns/op(Denominator) within
// one benchmark run — a machine-independent relative-speed pin.
type NsRatioGate struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Max         float64 `json:"max"`
}

// MicroBaseline is the committed microbenchmark envelope the CI
// bench-smoke job holds kernel runs to.
type MicroBaseline struct {
	// Tolerance is the allowed relative regression of allocs/op over the
	// expected value (0.15 = +15%); improvements always pass.
	Tolerance float64 `json:"tolerance"`
	// AllocsPerOp maps benchmark name (GOMAXPROCS suffix stripped) to its
	// expected allocations per operation.
	AllocsPerOp map[string]int64 `json:"allocs_per_op"`
	// BytesPerOp maps benchmark name to its expected bytes allocated per
	// operation, gated like AllocsPerOp.
	BytesPerOp map[string]int64 `json:"bytes_per_op"`
	// NsRatios are the relative wall-time gates.
	NsRatios []NsRatioGate `json:"ns_ratios"`
}

// LoadMicroBaseline reads a committed microbenchmark baseline file.
func LoadMicroBaseline(path string) (*MicroBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b MicroBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: micro baseline %s: %w", path, err)
	}
	return &b, nil
}

// Check compares parsed benchmark samples against the baseline. Every
// gated benchmark must be present in the results — a missing one means the
// benchmark was renamed or silently skipped, which is itself a failure.
// A nil error means every gate passed.
func (b *MicroBaseline) Check(results map[string][]MicroResult) error {
	var problems []string
	perOp := func(gates map[string]int64, unit string, of func(MicroResult) int64) {
		for name, expected := range gates {
			samples, ok := results[name]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: no result (renamed or not run?)", name))
				continue
			}
			var most int64
			for _, r := range samples {
				most = max(most, of(r))
			}
			limit := int64(float64(expected) * (1 + b.Tolerance))
			if most > limit {
				problems = append(problems, fmt.Sprintf("%s: %d %s, baseline expects ≤%d (%d +%.0f%%)",
					name, most, unit, limit, expected, 100*b.Tolerance))
			}
		}
	}
	perOp(b.AllocsPerOp, "allocs/op", func(r MicroResult) int64 { return r.AllocsPerOp })
	perOp(b.BytesPerOp, "B/op", func(r MicroResult) int64 { return r.BytesPerOp })
	for _, g := range b.NsRatios {
		num, ok := results[g.Numerator]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no result for %s", g.Name, g.Numerator))
			continue
		}
		den, ok := results[g.Denominator]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no result for %s", g.Name, g.Denominator))
			continue
		}
		numNs, denNs := medianNs(num), medianNs(den)
		if denNs <= 0 {
			problems = append(problems, fmt.Sprintf("%s: degenerate denominator %s", g.Name, g.Denominator))
			continue
		}
		if ratio := numNs / denNs; ratio > g.Max {
			problems = append(problems, fmt.Sprintf("%s: median ns/op ratio %.2f exceeds %.2f (%s=%.0fns vs %s=%.0fns, %d/%d samples)",
				g.Name, ratio, g.Max, g.Numerator, numNs, g.Denominator, denNs, len(num), len(den)))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench: microbenchmark gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// medianNs is the median ns/op of a benchmark's samples (the mean of the
// middle two for an even count).
func medianNs(samples []MicroResult) float64 {
	ns := make([]float64, len(samples))
	for i, r := range samples {
		ns[i] = r.NsPerOp
	}
	sort.Float64s(ns)
	mid := len(ns) / 2
	if len(ns)%2 == 0 {
		return (ns[mid-1] + ns[mid]) / 2
	}
	return ns[mid]
}

// CheckMicroFile loads a `go test -bench` output file and a baseline and
// runs the gate — the ccbench -check-micro entry point.
func CheckMicroFile(benchOutputPath, baselinePath string) error {
	data, err := os.ReadFile(benchOutputPath)
	if err != nil {
		return err
	}
	results := ParseGoBench(string(data))
	if len(results) == 0 {
		return fmt.Errorf("bench: %s contains no benchmark results", benchOutputPath)
	}
	b, err := LoadMicroBaseline(baselinePath)
	if err != nil {
		return err
	}
	return b.Check(results)
}
