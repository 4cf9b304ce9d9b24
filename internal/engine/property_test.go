package engine

import (
	"testing"

	"dbcc/internal/xrand"
)

// randRows generates random two-column rows with duplicates, NULLs and a
// small key range (to force collisions).
func randRows(rng *xrand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		var a, b Datum
		if rng.Uint64n(10) == 0 {
			a = NullDatum
		} else {
			a = I(int64(rng.Uint64n(12)))
		}
		if rng.Uint64n(10) == 0 {
			b = NullDatum
		} else {
			b = I(int64(rng.Uint64n(50)))
		}
		rows[i] = Row{a, b}
	}
	return rows
}

// TestGroupByMatchesNaive compares distributed grouped aggregation against
// a straightforward in-memory reference over random inputs, for both
// execution profiles.
func TestGroupByMatchesNaive(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 25; trial++ {
		rows := randRows(rng, int(rng.Uint64n(200)))
		for _, profile := range []Profile{ProfileMPP, ProfileSparkSQL} {
			c := NewCluster(Options{Segments: int(rng.Uint64n(6)) + 1, Profile: profile})
			mustCreate(t, c, "t", Schema{"k", "x"}, 0, rows)
			p := GroupBy(Scan("t"), []int{0},
				Agg{Op: AggMin, Arg: Col(1), Name: "mn"},
				Agg{Op: AggMax, Arg: Col(1), Name: "mx"},
				Agg{Op: AggCount, Arg: Col(1), Name: "cnt"},
				Agg{Op: AggCount, Name: "star"})
			_, got, err := c.Query(p)
			if err != nil {
				t.Fatal(err)
			}

			// Naive reference.
			type agg struct {
				mn, mx    Datum
				cnt, star int64
			}
			ref := map[Datum]*agg{}
			for _, r := range rows {
				a, ok := ref[r[0]]
				if !ok {
					a = &agg{mn: NullDatum, mx: NullDatum}
					ref[r[0]] = a
				}
				a.star++
				if !r[1].Null {
					a.cnt++
					if a.mn.Null || r[1].Int < a.mn.Int {
						a.mn = r[1]
					}
					if a.mx.Null || r[1].Int > a.mx.Int {
						a.mx = r[1]
					}
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(ref))
			}
			for _, row := range got {
				a, ok := ref[row[0]]
				if !ok {
					t.Fatalf("trial %d: unexpected group %v", trial, row[0])
				}
				if row[1] != a.mn || row[2] != a.mx || row[3].Int != a.cnt || row[4].Int != a.star {
					t.Fatalf("trial %d: group %v = %v, want %+v", trial, row[0], row, a)
				}
			}
		}
	}
}

// TestJoinMatchesNaive compares the distributed hash joins against nested
// loops over random inputs.
func TestJoinMatchesNaive(t *testing.T) {
	rng := xrand.New(43)
	for trial := 0; trial < 25; trial++ {
		left := randRows(rng, int(rng.Uint64n(80)))
		right := randRows(rng, int(rng.Uint64n(80)))
		c := NewCluster(Options{Segments: int(rng.Uint64n(6)) + 1})
		mustCreate(t, c, "l", Schema{"k", "a"}, 0, left)
		mustCreate(t, c, "r", Schema{"k", "b"}, 1, right)
		for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
			p := JoinPlan{Left: Scan("l"), Right: Scan("r"), LeftKey: 0, RightKey: 0, Kind: kind}
			_, got, err := c.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			var want []Row
			for _, lr := range left {
				matched := false
				if !lr[0].Null {
					for _, rr := range right {
						if !rr[0].Null && rr[0].Int == lr[0].Int {
							matched = true
							want = append(want, Row{lr[0], lr[1], rr[0], rr[1]})
						}
					}
				}
				if !matched && kind == LeftOuterJoin {
					want = append(want, Row{lr[0], lr[1], NullDatum, NullDatum})
				}
			}
			eqRows(t, got, want)
		}
	}
}

// TestDistinctMatchesNaive compares distributed DISTINCT with a map-based
// reference.
func TestDistinctMatchesNaive(t *testing.T) {
	rng := xrand.New(47)
	for trial := 0; trial < 25; trial++ {
		rows := randRows(rng, int(rng.Uint64n(300)))
		c := NewCluster(Options{Segments: int(rng.Uint64n(6)) + 1})
		mustCreate(t, c, "t", Schema{"k", "x"}, 0, rows)
		_, got, err := c.Query(Distinct(Scan("t")))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]Datum]bool{}
		var want []Row
		for _, r := range rows {
			k := [2]Datum{r[0], r[1]}
			if !seen[k] {
				seen[k] = true
				want = append(want, r)
			}
		}
		eqRows(t, got, want)
	}
}

// TestRedistributePreservesRows checks the shuffle moves every row exactly
// once and lands it on the hash-correct segment.
func TestRedistributePreservesRows(t *testing.T) {
	rng := xrand.New(53)
	rows := randRows(rng, 500)
	c := NewCluster(Options{Segments: 7})
	mustCreate(t, c, "t", Schema{"k", "x"}, 0, rows)
	if _, err := c.CreateTableAs("t2", Scan("t"), 1); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("t2")
	var total int
	for seg, part := range segmentRows(tab) {
		total += len(part)
		for _, row := range part {
			if want := segmentOf(c, row, 1); want != seg {
				t.Fatalf("row %v on segment %d, want %d", row, seg, want)
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("shuffle lost rows: %d of %d", total, len(rows))
	}
	got, _ := c.ReadAll("t2")
	eqRows(t, got, rows)
}

// TestProjectPreservesDistribution verifies the planner keeps track of
// distribution through pass-through projections (no redundant shuffle).
func TestProjectPreservesDistribution(t *testing.T) {
	c := NewCluster(Options{Segments: 4})
	var rows []Row
	for i := int64(0); i < 200; i++ {
		rows = append(rows, Row{I(i), I(i * 3)})
	}
	mustCreate(t, c, "t", Schema{"k", "x"}, 0, rows)
	before := c.Stats().ShuffleBytes
	// Projection keeps column 0 first; creating distributed by that output
	// column must not shuffle.
	p := Project(Scan("t"),
		ProjCol{Expr: Col(0), Name: "k"},
		ProjCol{Expr: Bin(OpAdd, Col(1), Const(1)), Name: "y"})
	if _, err := c.CreateTableAs("t2", p, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ShuffleBytes; got != before {
		t.Fatalf("pass-through projection shuffled %d bytes", got-before)
	}
}
