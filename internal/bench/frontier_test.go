package bench

import "testing"

// healthyFrontier is the shape of a passing A11 run (EXPERIMENTS.md A11):
// the path-512 calibration confirms 511 rounds, and ld folds the
// 1e6-vertex path, whose rc-det entry is the derived 999999, in one round.
func healthyFrontier() []FrontierEntry {
	return []FrontierEntry{
		{Dataset: "path-512", Name: "rc-det", Rounds: 511},
		{Dataset: "path-512", Name: "lc", Rounds: 1},
		{Dataset: "path-512", Name: "ld", Rounds: 1},
		{Dataset: "path-1e6", Name: "rc-det", Rounds: 999999},
		{Dataset: "path-1e6", Name: "lc", Rounds: 1},
		{Dataset: "path-1e6", Name: "ld", Rounds: 1},
		{Dataset: "star-200000", Name: "rc-det", Rounds: 1},
		{Dataset: "star-200000", Name: "lc", Rounds: 1},
		{Dataset: "star-200000", Name: "ld", Rounds: 1},
	}
}

func TestFrontierGate(t *testing.T) {
	if err := FrontierGate(healthyFrontier()); err != nil {
		t.Fatalf("healthy run rejected: %v", err)
	}
	set := func(dataset, name string, f func(*FrontierEntry)) []FrontierEntry {
		es := healthyFrontier()
		for i := range es {
			if es[i].Dataset == dataset && es[i].Name == name {
				f(&es[i])
			}
		}
		return es
	}
	bad := map[string][]FrontierEntry{
		"ld above half of rc-det": set("path-1e6", "ld", func(e *FrontierEntry) { e.Rounds = 500000 }),
		"ld cell errored":         set("star-200000", "ld", func(e *FrontierEntry) { e.Error = "boom" }),
		"lc cell errored":         set("path-512", "lc", func(e *FrontierEntry) { e.Error = "boom" }),
		"ld zero rounds":          set("path-1e6", "ld", func(e *FrontierEntry) { e.Rounds = 0 }),
		"calibration off by one":  set("path-512", "rc-det", func(e *FrontierEntry) { e.Rounds = 510 }),
		"calibration missing":     set("path-512", "rc-det", func(e *FrontierEntry) { e.Dataset = "elsewhere" }),
	}
	for name, es := range bad {
		if err := FrontierGate(es); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}
