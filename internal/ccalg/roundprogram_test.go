package ccalg_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dbcc/internal/ccalg"
	"dbcc/internal/ccalg/conformance"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

var updateRoundPrograms = flag.Bool("update-round-programs", false,
	"rewrite testdata/round_programs.json from the current drivers")

const roundProgramsFile = "testdata/round_programs.json"

// pinnedRound is the part of a RoundStats the golden pins: the live graph
// after the round and the round's statement count and write volume. Parse
// and plan-cache counters are left out — they describe how a statement
// reached the engine, not what the engine ran.
type pinnedRound struct {
	LiveVertices int64 `json:"live_vertices"`
	LiveEdges    int64 `json:"live_edges"`
	Queries      int64 `json:"queries"`
	RowsWritten  int64 `json:"rows_written"`
	BytesWritten int64 `json:"bytes_written"`
}

// pinnedRun is one driver's whole round program on one graph.
type pinnedRun struct {
	Rounds       int           `json:"rounds"`
	ShuffleBytes int64         `json:"shuffle_bytes"`
	LabelHash    string        `json:"label_hash"`
	RoundLog     []pinnedRound `json:"round_log"`
}

// labelHash is an FNV-1a digest of the canonical labelling in vertex
// order, so equal partitions hash equally whatever representatives a
// driver picked.
func labelHash(l graph.Labelling) string {
	canon := conformance.Canonicalize(l)
	vs := make([]int64, 0, len(canon))
	for v := range canon {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%d:%d;", v, canon[v])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runProgram(t *testing.T, info ccalg.Info, g *graph.Graph) pinnedRun {
	t.Helper()
	c := engine.NewCluster(engine.Options{Segments: 4})
	defer c.Close()
	if err := graph.Load(c, "input", g); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().ShuffleBytes
	res, err := info.Run(c, "input", ccalg.Options{Seed: 7})
	if err != nil {
		t.Fatalf("%s: %v", info.Name, err)
	}
	conformance.CheckCorrect(t, g, res)
	run := pinnedRun{
		Rounds:       res.Rounds,
		ShuffleBytes: c.Stats().ShuffleBytes - before,
		LabelHash:    labelHash(res.Labels),
	}
	for _, rs := range res.RoundLog {
		run.RoundLog = append(run.RoundLog, pinnedRound{
			LiveVertices: rs.LiveVertices,
			LiveEdges:    rs.LiveEdges,
			Queries:      rs.Queries,
			RowsWritten:  rs.RowsWritten,
			BytesWritten: rs.BytesWritten,
		})
	}
	return run
}

// TestRoundProgramsGolden pins every driver's round program — per-round
// live sizes, statement counts and write volume, plus the run's round
// count, shuffle volume and labelling — on the generator-family corpus at
// four segments. The file was recorded from the drivers as they stood
// before they were restated as SQL; a mismatch means a statement plans to
// different operators (fix its FROM order or shape), never a reason to
// rerecord.
func TestRoundProgramsGolden(t *testing.T) {
	got := map[string]map[string]pinnedRun{}
	for _, info := range conformance.Drivers() {
		got[info.Name] = map[string]pinnedRun{}
		for name, g := range conformance.FamilyGraphs() {
			got[info.Name][name] = runProgram(t, info, g)
		}
	}
	path := filepath.FromSlash(roundProgramsFile)
	if *updateRoundPrograms {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]pinnedRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for alg, graphs := range got {
		for name, g := range graphs {
			w, ok := want[alg][name]
			if !ok {
				t.Errorf("%s/%s: no golden round program", alg, name)
				continue
			}
			if err := compareProgram(g, w); err != nil {
				t.Errorf("%s/%s: %v", alg, name, err)
			}
		}
	}
}

func compareProgram(got, want pinnedRun) error {
	if got.Rounds != want.Rounds || len(got.RoundLog) != len(want.RoundLog) {
		return fmt.Errorf("rounds %d (log %d), golden %d (log %d)",
			got.Rounds, len(got.RoundLog), want.Rounds, len(want.RoundLog))
	}
	for i := range got.RoundLog {
		if got.RoundLog[i] != want.RoundLog[i] {
			return fmt.Errorf("round %d: %+v, golden %+v", i+1, got.RoundLog[i], want.RoundLog[i])
		}
	}
	if got.ShuffleBytes != want.ShuffleBytes {
		return fmt.Errorf("shuffle bytes %d, golden %d", got.ShuffleBytes, want.ShuffleBytes)
	}
	if got.LabelHash != want.LabelHash {
		return fmt.Errorf("labelling hash %s, golden %s", got.LabelHash, want.LabelHash)
	}
	return nil
}
