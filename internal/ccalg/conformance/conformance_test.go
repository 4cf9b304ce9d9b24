package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/unionfind"
)

// TestMain runs the package's tests with TMPDIR pointing at a fresh
// directory and fails the run if any cluster's spill directory outlives
// them: every cluster the suite builds must be closed.
func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "conformance-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)
	code := m.Run()
	if leaked, _ := filepath.Glob(filepath.Join(tmp, "dbcc-spill-*")); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d spill directories outlived the tests: %v\n", len(leaked), leaked)
		code = 1
	}
	os.RemoveAll(tmp)
	os.Exit(code)
}

// TestConformance instantiates the shared driver-contract suite for every
// driver: the paper's five algorithms, the two frontier drivers and the
// adaptive planner all pass exactly the same checks.
func TestConformance(t *testing.T) {
	for _, info := range Drivers() {
		t.Run(info.Name, func(t *testing.T) {
			Suite(t, info)
		})
	}
}

// TestByName checks registry lookups for every driver the suite covers.
func TestByName(t *testing.T) {
	for _, want := range Drivers() {
		info, ok := ccalg.ByName(want.Name)
		if !ok || info.Run == nil || info.FullName != want.FullName {
			t.Errorf("ByName(%q) failed", want.Name)
		}
	}
	if _, ok := ccalg.ByName("nope"); ok {
		t.Error("ByName accepted an unknown algorithm")
	}
}

// TestComponentCountsMatchOracle cross-checks component counts on a larger
// graph for every driver.
func TestComponentCountsMatchOracle(t *testing.T) {
	g := datagen.Image2D(30, 30, 36, 1.1, 0.2, 13)
	want := unionfind.CountComponents(g)
	for _, info := range Drivers() {
		res, _ := RunOn(t, info.Run, g, ccalg.Options{Seed: 3})
		if got := res.Labels.NumComponents(); got != want {
			t.Errorf("%s found %d components, oracle says %d", info.Name, got, want)
		}
	}
}
