package dbcc

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"dbcc/internal/ccalg"
)

func TestQuickstartFlow(t *testing.T) {
	db := Open(Config{Segments: 4})
	g := GeneratePath(200)
	res, err := db.ConnectedComponents(g, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels.NumComponents() != 1 {
		t.Fatalf("path has %d components", res.Labels.NumComponents())
	}
	if err := Verify(g, res.Labels); err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || res.Elapsed <= 0 || res.Stats.Queries == 0 {
		t.Fatalf("metrics not populated: %+v", res)
	}
}

func TestAllPublicAlgorithms(t *testing.T) {
	g := GenerateRMAT(8, 300, 2)
	for _, alg := range []string{RandomisedContraction, HashToMin, TwoPhase, Cracker, BFS, ""} {
		db := Open(Config{Segments: 3})
		res, err := db.ConnectedComponents(g, Params{Algorithm: alg, Seed: 4})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if err := Verify(g, res.Labels); err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	db := Open(Config{})
	if _, err := db.ConnectedComponents(GeneratePath(5), Params{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestMethodsAndVariants(t *testing.T) {
	g := GenerateBitcoin(100, 7)
	for _, m := range []Method{FiniteFields, GFPrime, Encryption, RandomReals} {
		for _, v := range []Variant{Fast, Safe} {
			db := Open(Config{Segments: 3})
			res, err := db.ConnectedComponents(g, Params{Seed: 6, Method: m, Variant: v})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, v, err)
			}
			if err := Verify(g, res.Labels); err != nil {
				t.Fatalf("%v/%v: %v", m, v, err)
			}
		}
	}
}

func TestSpaceLimitSurfaces(t *testing.T) {
	db := Open(Config{Segments: 2})
	_, err := db.ConnectedComponents(GeneratePath(2000), Params{Algorithm: HashToMin, MaxLiveBytes: 1000})
	if !errors.Is(err, ErrSpaceLimit) {
		t.Fatalf("err = %v, want ErrSpaceLimit", err)
	}
}

func TestConnectedComponentsOfResidentTable(t *testing.T) {
	db := Open(Config{Segments: 3})
	if err := db.LoadGraph("edges", GeneratePathUnion(4, 100)); err != nil {
		t.Fatal(err)
	}
	res, err := db.ConnectedComponentsOf("edges", Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels.NumComponents() != 4 {
		t.Fatalf("components %d, want 4", res.Labels.NumComponents())
	}
}

// TestConnectedComponentsStatementMatchesAPI holds the statement
// CONNECTED COMPONENTS OF to ConnectedComponentsOf: for every registry
// algorithm and auto, its one row is the API run's component, round and
// vertex counts, and it adds exactly the driver's queries and plan-cache
// lookups, none of its own.
func TestConnectedComponentsStatementMatchesAPI(t *testing.T) {
	db := Open(Config{Segments: 3})
	if err := db.LoadGraph("g", GenerateRMAT(8, 300, 2)); err != nil {
		t.Fatal(err)
	}
	names := []string{Auto}
	for _, a := range ccalg.Algorithms() {
		names = append(names, a.Name)
	}
	lookups := func(st Stats) int64 { return st.PlanCacheHits + st.PlanCacheMisses }
	for _, alg := range names {
		before := db.Cluster().Stats()
		res, err := db.ConnectedComponentsOf("g", Params{Algorithm: alg, Seed: 5, KeepStats: true})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		mid := db.Cluster().Stats()
		schema, rows, err := db.SQL().Query("CONNECTED COMPONENTS OF g USING " + alg + " SEED 5")
		if err != nil {
			t.Fatalf("%s statement: %v", alg, err)
		}
		after := db.Cluster().Stats()
		want := []int64{int64(res.Labels.NumComponents()), int64(res.Rounds), int64(len(res.Labels))}
		if strings.Join(schema, ",") != "components,rounds,vertices" || len(rows) != 1 ||
			rows[0][0].Int != want[0] || rows[0][1].Int != want[1] || rows[0][2].Int != want[2] {
			t.Fatalf("%s: statement returned %v %v, want one row %v", alg, schema, rows, want)
		}
		if q, wq := after.Queries-mid.Queries, mid.Queries-before.Queries; q != wq {
			t.Errorf("%s: statement ran %d queries, the API run %d", alg, q, wq)
		}
		if l, wl := lookups(after)-lookups(mid), lookups(mid)-lookups(before); l != wl {
			t.Errorf("%s: statement made %d plan-cache lookups, the API run %d", alg, l, wl)
		}
	}
}

func TestSQLSessionExposed(t *testing.T) {
	db := Open(Config{Segments: 2})
	if err := db.LoadGraph("e", GeneratePath(10)); err != nil {
		t.Fatal(err)
	}
	_, rows, err := db.SQL().Query("select count(*) as n from e")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 9 {
		t.Fatalf("count %v", rows[0])
	}
	// The paper's UDF is pre-registered.
	_, rows, err = db.SQL().Query("select axplusb(1, 42, 0) as r")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int != 42 {
		t.Fatalf("axplusb identity: %v", rows[0])
	}
}

func TestReadGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("# c\n1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges %d", g.NumEdges())
	}
	l := SequentialComponents(g)
	if l.NumComponents() != 1 {
		t.Fatalf("components %d", l.NumComponents())
	}
}

func TestSparkProfileStillCorrect(t *testing.T) {
	db := Open(Config{Segments: 3, Profile: ProfileSparkSQL})
	if got := db.Cluster().Profile(); got != ProfileSparkSQL {
		t.Fatalf("cluster profile %v, want ProfileSparkSQL", got)
	}
	g := GenerateImage2D(15, 15, 3)
	res, err := db.ConnectedComponents(g, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsRC is the headline concurrency scenario: many
// goroutines run full Randomised Contraction on different graphs through
// one shared DB at the same time. Every labelling must match the
// single-threaded Union/Find baseline computed up front.
func TestConcurrentSessionsRC(t *testing.T) {
	const sessions = 8
	db := Open(Config{Segments: 4})

	type job struct {
		g    *Graph
		want Labelling
	}
	jobs := make([]job, sessions)
	for i := range jobs {
		var g *Graph
		switch i % 4 {
		case 0:
			g = GenerateRMAT(7, 150+10*i, uint64(i+1))
		case 1:
			g = GeneratePathUnion(3, 40+5*i)
		case 2:
			g = GenerateBitcoin(60+10*i, uint64(i+1))
		default:
			g = GenerateImage2D(10+i, 10, uint64(i+1))
		}
		jobs[i] = job{g: g, want: SequentialComponents(g)}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := db.ConnectedComponents(jobs[i].g, Params{Seed: uint64(100 + i)})
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if err := Verify(jobs[i].g, res.Labels); err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if got, want := res.Labels.NumComponents(), jobs[i].want.NumComponents(); got != want {
				t.Errorf("session %d: %d components, baseline says %d", i, got, want)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	cs := db.Cluster().ConcurrencyStats()
	if cs.Active != 0 {
		t.Errorf("ConcurrencyStats.Active = %d after all sessions finished, want 0", cs.Active)
	}
	if names := db.Cluster().TableNames(); len(names) != 0 {
		t.Errorf("tables left behind by concurrent runs: %v", names)
	}
}

// TestConcurrentMixedAlgorithms runs a different algorithm in every
// session, all sharing one cluster, so the run-private temp namespaces of
// all five implementations are exercised against each other.
func TestConcurrentMixedAlgorithms(t *testing.T) {
	db := Open(Config{Segments: 3})
	algs := []string{RandomisedContraction, HashToMin, TwoPhase, Cracker, BFS, RandomisedContraction}

	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg string) {
			defer wg.Done()
			g := GenerateRMAT(7, 120+20*i, uint64(i+7))
			res, err := db.ConnectedComponents(g, Params{Algorithm: alg, Seed: uint64(i + 1)})
			if err != nil {
				t.Errorf("%s: %v", alg, err)
				return
			}
			if err := Verify(g, res.Labels); err != nil {
				t.Errorf("%s: %v", alg, err)
			}
		}(i, alg)
	}
	wg.Wait()
}

// TestTwoSessionsSameGraphMatchBaseline pins the acceptance criterion
// verbatim: two sessions running RC concurrently on one cluster, same
// graph and seed, both return the exact single-threaded baseline labelling
// (computed by a solo run on a private DB).
func TestTwoSessionsSameGraphMatchBaseline(t *testing.T) {
	g := GenerateRMAT(8, 250, 3)
	solo := Open(Config{Segments: 4})
	base, err := solo.ConnectedComponents(g, Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	db := Open(Config{Segments: 4})
	results := make([]Labelling, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := db.ConnectedComponents(g, Params{Seed: 9})
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			results[i] = res.Labels
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, got := range results {
		if len(got) != len(base.Labels) {
			t.Fatalf("session %d labelled %d vertices, baseline %d", i, len(got), len(base.Labels))
		}
		for v, lab := range got {
			if base.Labels[v] != lab {
				t.Fatalf("session %d: vertex %d labelled %d, single-threaded baseline says %d",
					i, v, lab, base.Labels[v])
			}
		}
	}
}
