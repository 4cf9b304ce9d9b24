package ccalg_test

import (
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/ccalg/conformance"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

// The generic per-driver round-log checks (numbering, OnRound mirroring,
// queries per round, the parse-free prepared-loop pin) live in the
// conformance suite's roundstats subtest; this file keeps the RC-specific
// shrinkage and reproducibility pins.

// TestRCRoundLogShrinkage checks the contraction invariant the round log
// exposes: the live edge set of Randomised Contraction never grows from
// round to round (Lemma 2's expected shrinkage is probabilistic, but
// non-growth is certain: contraction only merges vertices and removes
// loops), and the run ends with the graph contracted away entirely.
func TestRCRoundLogShrinkage(t *testing.T) {
	g := datagen.Bitcoin(300, 7)
	res, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, ccalg.Options{Seed: 11})
	conformance.CheckCorrect(t, g, res)
	if len(res.RoundLog) == 0 {
		t.Fatal("RC produced no round log")
	}
	if len(res.RoundLog) != res.Rounds {
		t.Fatalf("round log has %d entries, Rounds = %d", len(res.RoundLog), res.Rounds)
	}
	prev := res.RoundLog[0].LiveEdges
	for i, rs := range res.RoundLog {
		if rs.Round != i+1 {
			t.Fatalf("round %d numbered %d", i+1, rs.Round)
		}
		if rs.LiveEdges > prev {
			t.Fatalf("round %d: live edges grew %d -> %d", rs.Round, prev, rs.LiveEdges)
		}
		prev = rs.LiveEdges
		if rs.Queries <= 0 {
			t.Fatalf("round %d issued %d queries", rs.Round, rs.Queries)
		}
		if rs.RowsWritten <= 0 || rs.BytesWritten <= 0 {
			t.Fatalf("round %d wrote rows=%d bytes=%d", rs.Round, rs.RowsWritten, rs.BytesWritten)
		}
	}
	if last := res.RoundLog[len(res.RoundLog)-1]; last.LiveEdges != 0 {
		t.Fatalf("final round still has %d live edges", last.LiveEdges)
	}
}

// rcDetQueries is the exact whole-run statement count of deterministic RC
// on Bitcoin(120, 2019) over 4 segments. The deterministic variant issues
// precisely the same statements for a fixed input, so any change here
// means an engine or driver change altered the round program; update the
// constant only for an intended one.
const rcDetQueries = 20

// rcDetParses pins the SQL parse count of the same run. The driver
// prepares each of its distinct statement shapes exactly once — setup,
// representative selection, the two contraction steps and relabeling (the
// composed map's coefficients are computed on the coordinator, with no
// statement) — so a whole run costs five parses regardless of how many
// rounds it takes; every round-loop execution is a plan-cache hit.
// A higher number means a statement stopped being prepared (or a shape was
// duplicated) and the prepare-once economics regressed.
const rcDetParses = 5

func TestRCDetQueryCountPinned(t *testing.T) {
	g := datagen.Bitcoin(120, 2019)
	c := engine.NewCluster(engine.Options{Segments: 4})
	defer c.Close()
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	res, err := ccalg.RandomisedContraction(c, "input",
		ccalg.Options{Seed: 2019, RC: ccalg.RCOptions{Deterministic: true}})
	if err != nil {
		t.Fatal(err)
	}
	conformance.CheckCorrect(t, g, res)
	st := c.Stats()
	if st.Queries != rcDetQueries {
		t.Errorf("deterministic RC issued %d queries, pinned at %d", st.Queries, rcDetQueries)
	}
	if st.Parses != rcDetParses {
		t.Errorf("deterministic RC parsed %d times, pinned at %d (one parse per distinct statement shape)",
			st.Parses, rcDetParses)
	}
	if st.PlanCacheHits == 0 {
		t.Error("deterministic RC recorded no plan-cache hits; round loops are replanning")
	}
}

// TestRCDeterministicRoundLogReproducible checks that the deterministic
// variant's round log is identical across runs.
func TestRCDeterministicRoundLogReproducible(t *testing.T) {
	g := datagen.Bitcoin(200, 3)
	opts := ccalg.Options{Seed: 5, RC: ccalg.RCOptions{Deterministic: true}}
	res1, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, opts)
	res2, _ := conformance.RunOn(t, ccalg.RandomisedContraction, g, opts)
	if len(res1.RoundLog) != len(res2.RoundLog) {
		t.Fatalf("round counts differ: %d vs %d", len(res1.RoundLog), len(res2.RoundLog))
	}
	for i := range res1.RoundLog {
		if res1.RoundLog[i] != res2.RoundLog[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i+1, res1.RoundLog[i], res2.RoundLog[i])
		}
	}
}
