package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/unionfind"
)

// TestMain runs the package's tests with TMPDIR pointing at a fresh
// directory and fails the run if anything outlives them: a descriptor
// still open on a spill file (an unlinked one reads ".../dbcc-spill-N
// (deleted)" under /proc/self/fd), or any entry left in that directory.
func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "conformance-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)
	code := m.Run()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: listing open descriptors: %v\n", err)
		code = 1
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.Contains(target, "dbcc-spill-") {
			fmt.Fprintf(os.Stderr, "FAIL: spill file %s still open after the tests\n", target)
			code = 1
		}
	}
	if ents, _ := os.ReadDir(tmp); len(ents) > 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		fmt.Fprintf(os.Stderr, "FAIL: %d entries outlived the tests in TMPDIR: %v\n", len(ents), names)
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
