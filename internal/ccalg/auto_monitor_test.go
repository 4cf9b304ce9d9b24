package ccalg

import (
	"context"
	"errors"
	"testing"

	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/verify"
)

// runAutoUnder runs Auto's body on the cluster's "input" table with the
// monitor m in place of the one Auto builds from its constants.
func runAutoUnder(c *engine.Cluster, m autoMonitor, opts Options) (*Result, error) {
	return drive(c, "input", opts, "auto", func(r *run, input string) (string, error) {
		return runAuto(r, input, opts, m)
	})
}

// loadCluster returns a four-segment cluster holding g as "input".
func loadCluster(t *testing.T, g *graph.Graph) *engine.Cluster {
	t.Helper()
	c := engine.NewCluster(engine.Options{Segments: 4})
	t.Cleanup(func() { c.Close() })
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkOnlyInput fails unless the catalog holds the input table alone.
func checkOnlyInput(t *testing.T, c *engine.Cluster) {
	t.Helper()
	if names := c.TableNames(); len(names) != 1 || names[0] != "input" {
		t.Fatalf("tables left behind: %v", names)
	}
}

// sameRound compares the parts of two rounds that describe what the
// engine ran: the live graph after the round and its statements and
// write volume.
func sameRound(a, b RoundStats) bool {
	return a.LiveVertices == b.LiveVertices && a.LiveEdges == b.LiveEdges &&
		a.Queries == b.Queries && a.RowsWritten == b.RowsWritten && a.BytesWritten == b.BytesWritten
}

// TestAutoFallbackContinuesRun trips the monitor's round ceiling on a
// graph Auto plans as log-diameter: after two ld rounds Two-Phase takes
// over in the same run, and its rounds continue the log.
func TestAutoFallbackContinuesRun(t *testing.T) {
	g := datagen.PathUnion(10, 2000)
	c := loadCluster(t, g)
	var streamed []RoundStats
	opts := Options{Seed: 1, OnRound: func(rs RoundStats) { streamed = append(streamed, rs) }}
	res, err := runAutoUnder(c, autoMonitor{blowup: autoBlowupFactor, ceiling: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Labelling(g, res.Labels); err != nil {
		t.Fatalf("fallback labelling: %v", err)
	}
	checkOnlyInput(t, c)

	if res.Rounds != len(res.RoundLog) || len(streamed) != len(res.RoundLog) {
		t.Fatalf("Rounds %d, log %d entries, OnRound streamed %d", res.Rounds, len(res.RoundLog), len(streamed))
	}
	for i, rs := range res.RoundLog {
		if rs.Round != i+1 {
			t.Fatalf("log entry %d numbered %d", i+1, rs.Round)
		}
		if rs != streamed[i] {
			t.Fatalf("round %d: streamed %+v, logged %+v", i+1, streamed[i], rs)
		}
	}

	ld, err := LogDiameter(loadCluster(t, g), "input", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := TwoPhase(loadCluster(t, g), "input", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.RoundLog) < 3 {
		t.Fatalf("ld finishes in %d rounds; the ceiling of 1 never trips", len(ld.RoundLog))
	}
	if want := 2 + len(tp.RoundLog); len(res.RoundLog) != want {
		t.Fatalf("auto ran %d rounds, want 2 ld rounds + %d tp rounds", len(res.RoundLog), len(tp.RoundLog))
	}
	for i := 0; i < 2; i++ {
		if !sameRound(res.RoundLog[i], ld.RoundLog[i]) {
			t.Errorf("round %d: %+v, plain ld %+v", i+1, res.RoundLog[i], ld.RoundLog[i])
		}
	}
	for i, want := range tp.RoundLog {
		if got := res.RoundLog[2+i]; !sameRound(got, want) {
			t.Errorf("round %d: %+v, plain tp round %d %+v", 3+i, got, i+1, want)
		}
	}
}

// TestAutoFallbackFailureKeepsLog cancels the run in the fallback's first
// round: the error names Two-Phase and the round after the three
// completed, and carries all three, the abandoned ld rounds included.
func TestAutoFallbackFailureKeepsLog(t *testing.T) {
	c := loadCluster(t, datagen.PathUnion(10, 2000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Seed: 1, Context: ctx, OnRound: func(rs RoundStats) {
		if rs.Round == 3 {
			cancel()
		}
	}}
	_, err := runAutoUnder(c, autoMonitor{blowup: autoBlowupFactor, ceiling: 1}, opts)
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *RoundError", err)
	}
	if re.Algorithm != "tp" || re.Round != 4 || len(re.RoundLog) != 3 {
		t.Fatalf("RoundError{Algorithm: %q, Round: %d} with %d logged rounds, want tp, 4, 3",
			re.Algorithm, re.Round, len(re.RoundLog))
	}
	for i, rs := range re.RoundLog {
		if rs.Round != i+1 {
			t.Fatalf("log entry %d numbered %d", i+1, rs.Round)
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err does not unwrap to context.Canceled: %v", err)
	}
	checkOnlyInput(t, c)
}

// TestAutoMonitorCheck pins the monitor's triggers: the blow-up is
// measured against the input's edge count from round 1 on, and the round
// ceiling trips one round past it.
func TestAutoMonitorCheck(t *testing.T) {
	m := autoMonitor{blowup: autoBlowupFactor, ceiling: autoRoundCeiling, input: 100}
	for _, tc := range []struct {
		name string
		rs   RoundStats
		trip bool
	}{
		{"round 1 at 9x the input", RoundStats{Round: 1, LiveEdges: 900}, true},
		{"round 1 at 7x the input", RoundStats{Round: 1, LiveEdges: 700}, false},
		{"round 2 at 8x the input", RoundStats{Round: 2, LiveEdges: 800}, false},
		{"round 2 shrinking", RoundStats{Round: 2, LiveEdges: 40}, false},
		{"at the ceiling", RoundStats{Round: autoRoundCeiling, LiveEdges: 40}, false},
		{"past the ceiling", RoundStats{Round: autoRoundCeiling + 1, LiveEdges: 40}, true},
	} {
		err := m.check(tc.rs)
		if tripped := errors.Is(err, errAutoAbort); tripped != tc.trip || (err != nil && !tripped) {
			t.Errorf("%s: check = %v, want trip %v", tc.name, err, tc.trip)
		}
	}
}
