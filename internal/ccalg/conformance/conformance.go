// Package conformance is the driver conformance harness: one table-driven
// suite every connected-components driver — current or future — must pass.
// A driver is conformant when it (1) labels every corpus graph equivalently
// to the Union/Find oracle, (2) is bit-for-bit deterministic for a fixed
// seed, (3) aborts within 100 ms of its context being cancelled, (4)
// produces fault-free labels under 5% injected task faults, (5) keeps peak
// accounted work memory within the engine budget, (6) emits a well-formed
// RoundStats stream (strictly increasing round numbers, queries in every
// round, OnRound mirroring RoundLog, and zero SQL parses after round one —
// the prepared-statement pin), (7) leaves no temp tables behind, on the
// success path and the space-limit failure path alike, and (8) enforces
// the input contract — any two-column table, whatever its columns are
// called, and nothing else. Suite instantiates all of that for one driver;
// Drivers enumerates the registry plus the adaptive planner so the test
// files run every driver through the same code.
//
// The package also hosts the oracle-comparison helpers (RunOn,
// CheckCorrect, Canonicalize, SameLabelling) and the shared graph corpus
// that used to be duplicated across the ccalg test files.
package conformance

import (
	"context"
	"errors"
	"testing"
	"time"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/verify"
)

// Drivers returns every driver the suite covers: the registered algorithms
// (the paper's five plus the two frontier drivers) and the adaptive
// planner, which is registered separately because it delegates to them.
func Drivers() []ccalg.Info {
	return append(ccalg.Algorithms(), ccalg.AutoInfo())
}

// RunOn loads g into a fresh cluster and runs algorithm fn on it.
func RunOn(t *testing.T, fn ccalg.Func, g *graph.Graph, opts ccalg.Options) (*ccalg.Result, *engine.Cluster) {
	t.Helper()
	c := newCluster(t, engine.Options{Segments: 4})
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatal(err)
	}
	res, err := fn(c, "input", opts)
	if err != nil {
		t.Fatalf("algorithm failed: %v", err)
	}
	return res, c
}

// CheckCorrect asserts the result labelling matches the Union/Find oracle.
func CheckCorrect(t *testing.T, g *graph.Graph, res *ccalg.Result) {
	t.Helper()
	if err := verify.Labelling(g, res.Labels); err != nil {
		t.Fatalf("incorrect labelling: %v", err)
	}
}

// Canonicalize maps every vertex to the smallest vertex of its component,
// the representative-independent form labellings are compared in.
func Canonicalize(l graph.Labelling) map[int64]int64 {
	minOf := map[int64]int64{}
	for v, lab := range l {
		if m, ok := minOf[lab]; !ok || v < m {
			minOf[lab] = v
		}
	}
	out := make(map[int64]int64, len(l))
	for v, lab := range l {
		out[v] = minOf[lab]
	}
	return out
}

// SameLabelling asserts two labellings are exactly equal (same
// representatives, not merely the same partition).
func SameLabelling(t *testing.T, ctxt string, got, want graph.Labelling) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: labelled %d vertices, want %d", ctxt, len(got), len(want))
	}
	for v, lab := range want {
		if got[v] != lab {
			t.Fatalf("%s: vertex %d labelled %d, want %d", ctxt, v, got[v], lab)
		}
	}
}

// FamilyGraphs is the corpus of structurally diverse generator families.
func FamilyGraphs() map[string]*graph.Graph {
	loops := graph.New(0)
	loops.AddEdge(1, 1)
	loops.AddEdge(2, 2)
	loops.AddEdge(5, 5)

	mixed := datagen.PathUnion(4, 60)
	mixed.AddEdge(1000, 1000) // isolated vertex as loop edge

	single := graph.New(0)
	single.AddEdge(42, 17)

	return map[string]*graph.Graph{
		"path":       datagen.Path(60),
		"cycle":      datagen.Cycle(37),
		"complete":   datagen.Complete(12),
		"star":       datagen.Star(25),
		"pathunion":  datagen.PathUnion(3, 40),
		"rmat":       datagen.RMAT(8, 300, 0.57, 0.19, 0.19, 0.05, 3),
		"image2d":    datagen.Image2D(15, 15, 10, 1.1, 0.2, 5),
		"video3d":    datagen.Video3D(6, 6, 4, 5, 1.1, 0.05, 5),
		"bitcoin":    datagen.Bitcoin(100, 5),
		"friendster": datagen.Friendster(80, 3, 5),
		"erdos":      datagen.ErdosRenyi(50, 80, 9),
		"loops-only": loops,
		"mixed":      mixed,
		"one-edge":   single,
	}
}

// EdgeCaseGraphs are adversarial and degenerate inputs every algorithm
// must handle: negative vertex IDs (legal 64-bit values the generators
// never emit but input files may), duplicate and parallel edges, loops
// mixed with real edges, extreme ID magnitudes, and a vertex adjacent to
// everything.
func EdgeCaseGraphs() map[string]*graph.Graph {
	negative := graph.New(0)
	negative.AddEdge(-5, -9)
	negative.AddEdge(-9, 3)
	negative.AddEdge(7, 7)

	dupes := graph.New(0)
	for i := 0; i < 5; i++ {
		dupes.AddEdge(1, 2) // parallel edges
		dupes.AddEdge(2, 1) // and the reversed duplicates
	}
	dupes.AddEdge(2, 3)

	loopsAndEdges := graph.New(0)
	loopsAndEdges.AddEdge(1, 1) // loop on a vertex that also has real edges
	loopsAndEdges.AddEdge(1, 2)
	loopsAndEdges.AddEdge(3, 3)

	extremes := graph.New(0)
	extremes.AddEdge(0, 9223372036854775807)
	extremes.AddEdge(-9223372036854775808, 0)
	extremes.AddEdge(42, 42)

	hub := graph.New(0)
	for i := int64(1); i <= 40; i++ {
		hub.AddEdge(0, i)
	}

	twoVertexLoop := graph.New(0)
	twoVertexLoop.AddEdge(5, 5)
	twoVertexLoop.AddEdge(5, 5)

	return map[string]*graph.Graph{
		"negative-ids":    negative,
		"duplicate-edges": dupes,
		"loops-and-edges": loopsAndEdges,
		"extreme-ids":     extremes,
		"hub":             hub,
		"repeated-loop":   twoVertexLoop,
	}
}

// Graphs is the full conformance corpus: the generator families united
// with the adversarial edge cases. Names are disjoint by construction.
func Graphs() map[string]*graph.Graph {
	out := FamilyGraphs()
	for name, g := range EdgeCaseGraphs() {
		out[name] = g
	}
	return out
}

// ChaosFaults is the fault model of the suite's chaotic runs: 5% of
// task attempts die outright, and spill writes fail at a much lower
// per-write rate because one spilling kernel can perform hundreds of
// writes per attempt under a pathological budget, and the per-attempt
// failure probability must stay inside what the retry policy absorbs.
// Retries are generous and nearly free so runs always finish.
var ChaosFaults = engine.FaultConfig{
	Seed:             1234,
	FailureRate:      0.05,
	SpillFailureRate: 0.0002,
	RetryBackoff:     time.Microsecond,
	MaxTaskRetries:   10,
	RetryBudget:      10000,
}

// newCluster builds a cluster that is closed when t and its subtests
// finish.
func newCluster(t *testing.T, opts engine.Options) *engine.Cluster {
	c := engine.NewCluster(opts)
	t.Cleanup(func() { c.Close() })
	return c
}

// Suite runs the full conformance suite against one driver. Each clause of
// the driver contract is a named subtest so a failure pinpoints the broken
// guarantee.
func Suite(t *testing.T, info ccalg.Info) {
	t.Run("oracle", func(t *testing.T) {
		for name, g := range Graphs() {
			t.Run(name, func(t *testing.T) {
				res, _ := RunOn(t, info.Run, g, ccalg.Options{Seed: 7})
				CheckCorrect(t, g, res)
			})
		}
	})

	t.Run("determinism", func(t *testing.T) {
		g := datagen.Bitcoin(150, 9)
		a, _ := RunOn(t, info.Run, g, ccalg.Options{Seed: 5})
		b, _ := RunOn(t, info.Run, g, ccalg.Options{Seed: 5})
		if a.Rounds != b.Rounds {
			t.Fatalf("rounds differ across identical runs: %d vs %d", a.Rounds, b.Rounds)
		}
		SameLabelling(t, "second run", b.Labels, a.Labels)
		if len(a.RoundLog) != len(b.RoundLog) {
			t.Fatalf("round logs differ in length: %d vs %d", len(a.RoundLog), len(b.RoundLog))
		}
		for i := range a.RoundLog {
			if a.RoundLog[i] != b.RoundLog[i] {
				t.Fatalf("round %d stats differ: %+v vs %+v", i+1, a.RoundLog[i], b.RoundLog[i])
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		c := newCluster(t, engine.Options{Segments: 4})
		// A graph large enough that the run is still going when cancel
		// fires mid-flight.
		if err := graph.Load(c, "input", datagen.Bitcoin(5000, 7)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := info.Run(c, "input", ccalg.Options{Seed: 1, Context: ctx})
			done <- err
		}()
		for i := 0; c.Stats().Queries < 3; i++ {
			if i > 2000 {
				t.Fatal("run never started issuing queries")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		t0 := time.Now()
		select {
		case err := <-done:
			if elapsed := time.Since(t0); elapsed > 100*time.Millisecond {
				t.Fatalf("cancelled run took %v to return, want <100ms", elapsed)
			}
			if err == nil {
				t.Fatal("cancelled run returned no error")
			}
			var re *ccalg.RoundError
			if !errors.As(err, &re) {
				t.Fatalf("cancelled run returned %T (%v), want *ccalg.RoundError", err, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run's error does not unwrap to context.Canceled: %v", err)
			}
			if names := c.TableNames(); len(names) != 1 || names[0] != "input" {
				t.Fatalf("tables left behind after the cancelled run: %v", names)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled run did not return within 5s")
		}
	})

	t.Run("faults", func(t *testing.T) {
		g := datagen.Bitcoin(150, 9)
		clean, _ := RunOn(t, info.Run, g, ccalg.Options{Seed: 5})
		CheckCorrect(t, g, clean)
		c := newCluster(t, engine.Options{Segments: 4, Faults: ChaosFaults})
		if err := graph.Load(c, "input", g); err != nil {
			t.Fatal(err)
		}
		res, err := info.Run(c, "input", ccalg.Options{Seed: 5})
		if err != nil {
			t.Fatalf("run under 5%% faults failed: %v", err)
		}
		// Retries must be transparent: not merely a correct labelling but
		// the identical one.
		SameLabelling(t, "faulty run vs clean run", res.Labels, clean.Labels)
	})

	t.Run("budget", func(t *testing.T) {
		const budget = 8 << 10
		g := datagen.ErdosRenyi(120, 260, 5)
		unbounded, _ := RunOn(t, info.Run, g, ccalg.Options{Seed: 5})
		c := newCluster(t, engine.Options{Segments: 4, MemoryBudget: budget})
		if err := graph.Load(c, "input", g); err != nil {
			t.Fatal(err)
		}
		res, err := info.Run(c, "input", ccalg.Options{Seed: 5})
		if err != nil {
			t.Fatalf("run under %d-byte budget failed: %v", budget, err)
		}
		if peak := c.Stats().PeakWorkBytes; peak > budget {
			t.Fatalf("peak accounted work memory %d exceeds the %d-byte budget", peak, budget)
		}
		// Spilling must be invisible in the output.
		SameLabelling(t, "budgeted run vs unbounded run", res.Labels, unbounded.Labels)
	})

	t.Run("roundstats", func(t *testing.T) {
		g := datagen.Bitcoin(150, 9)
		var streamed []ccalg.RoundStats
		opts := ccalg.Options{Seed: 13, OnRound: func(rs ccalg.RoundStats) { streamed = append(streamed, rs) }}
		res, _ := RunOn(t, info.Run, g, opts)
		CheckCorrect(t, g, res)
		if len(res.RoundLog) == 0 {
			t.Fatal("no round log")
		}
		if len(res.RoundLog) != res.Rounds {
			t.Fatalf("round log has %d entries, Rounds = %d", len(res.RoundLog), res.Rounds)
		}
		if len(streamed) != len(res.RoundLog) {
			t.Fatalf("OnRound streamed %d entries, log has %d", len(streamed), len(res.RoundLog))
		}
		for i, rs := range res.RoundLog {
			if rs != streamed[i] {
				t.Fatalf("round %d: streamed %+v, logged %+v", i+1, streamed[i], rs)
			}
			if rs.Round != i+1 {
				t.Fatalf("round %d numbered %d: round numbers must increase strictly from 1", i+1, rs.Round)
			}
			if rs.Queries <= 0 {
				t.Fatalf("round %d issued %d queries", rs.Round, rs.Queries)
			}
			// The prepared-statement pin: with the default options, round
			// loops run prepared, so nothing is parsed after the first
			// round.
			if rs.Round > 1 && rs.Parses != 0 {
				t.Fatalf("round %d parsed %d statements; rounds after the first must be parse-free", rs.Round, rs.Parses)
			}
		}
	})

	t.Run("cleanup", func(t *testing.T) {
		g := datagen.ErdosRenyi(40, 60, 4)
		c := newCluster(t, engine.Options{Segments: 3})
		if err := graph.Load(c, "input", g); err != nil {
			t.Fatal(err)
		}
		if _, err := info.Run(c, "input", ccalg.Options{Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if names := c.TableNames(); len(names) != 1 || names[0] != "input" {
			t.Fatalf("run left tables behind: %v", names)
		}
	})

	t.Run("space-limit", func(t *testing.T) {
		g := datagen.Path(2000)
		c := newCluster(t, engine.Options{Segments: 3})
		if err := graph.Load(c, "input", g); err != nil {
			t.Fatal(err)
		}
		_, err := info.Run(c, "input", ccalg.Options{Seed: 2, MaxLiveBytes: 1})
		if !errors.Is(err, ccalg.ErrSpaceLimit) {
			t.Fatalf("run under a 1-byte space budget: err = %v, want ErrSpaceLimit", err)
		}
		if names := c.TableNames(); len(names) != 1 || names[0] != "input" {
			t.Fatalf("tables left behind after the space-limit failure: %v", names)
		}
	})

	t.Run("empty", func(t *testing.T) {
		c := newCluster(t, engine.Options{Segments: 2})
		if err := graph.Load(c, "input", graph.New(0)); err != nil {
			t.Fatal(err)
		}
		res, err := info.Run(c, "input", ccalg.Options{Seed: 1})
		if err != nil {
			t.Fatalf("failed on empty input: %v", err)
		}
		if len(res.Labels) != 0 {
			t.Fatalf("labelled %d vertices of an empty graph", len(res.Labels))
		}
	})

	t.Run("validation", func(t *testing.T) {
		c := newCluster(t, engine.Options{Segments: 2})
		if _, err := c.CreateTable("bad", engine.Schema{"a", "b", "c"}, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := info.Run(c, "missing", ccalg.Options{}); err == nil {
			t.Error("accepted a missing input table")
		}
		if _, err := info.Run(c, "bad", ccalg.Options{}); err == nil {
			t.Error("accepted a three-column input table")
		}
		// Any two-column table is an edge table, whatever its columns are
		// called. (On this graph auto plans rc-det, so the SQL the
		// planner delegates to is covered too.)
		g := datagen.Friendster(80, 3, 5)
		if _, err := c.CreateTable("ab", engine.Schema{"a", "b"}, 0); err != nil {
			t.Fatal(err)
		}
		rows := make([]engine.Row, len(g.Edges))
		for i, e := range g.Edges {
			rows[i] = engine.Row{engine.I(e.V), engine.I(e.W)}
		}
		if err := c.InsertRows("ab", rows); err != nil {
			t.Fatal(err)
		}
		res, err := info.Run(c, "ab", ccalg.Options{Seed: 3})
		if err != nil {
			t.Fatalf("input table with columns (a, b): %v", err)
		}
		CheckCorrect(t, g, res)
	})

	t.Run("temp-named-input", func(t *testing.T) {
		// An input named like a driver's own temp table must still be read
		// as the caller's table in every round, loop edge (isolated vertex
		// 9) included.
		g := graph.New(8)
		for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 5}, {9, 9}} {
			g.AddEdge(e[0], e[1])
		}
		for _, name := range []string{"rc_graph", "hm_map", "tp_e", "cr_e", "bfs_e", "lc_l", "ld_l", "pb_l"} {
			c := newCluster(t, engine.Options{Segments: 2})
			if err := graph.Load(c, name, g); err != nil {
				t.Fatal(err)
			}
			res, err := info.Run(c, name, ccalg.Options{Seed: 4})
			if err != nil {
				t.Fatalf("input table %q: %v", name, err)
			}
			if err := verify.Labelling(g, res.Labels); err != nil {
				t.Fatalf("input table %q: incorrect labelling: %v", name, err)
			}
		}
	})
}
