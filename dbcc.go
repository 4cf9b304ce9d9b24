// Package dbcc is the public API of the in-database connected component
// analysis library, a from-scratch Go reproduction of
//
//	H. Bögeholz, M. Brand, R.-A. Todor,
//	"In-database connected component analysis", ICDE 2020.
//
// The library bundles an in-process MPP relational database engine with a
// SQL front end (the substrate the paper's algorithms execute on), the
// paper's Randomised Contraction algorithm, the three competing distributed
// algorithms of its evaluation (Hash-to-Min, Two-Phase, Cracker) plus the
// naive BFS strategy, a sequential Union/Find baseline, and generators for
// every dataset family in the paper's benchmark.
//
// Quick start:
//
//	db := dbcc.Open(dbcc.Config{})
//	g := dbcc.GeneratePath(1000)
//	res, err := db.ConnectedComponents(g, dbcc.Params{})
//	if err != nil { ... }
//	fmt.Println(res.Labels.NumComponents(), "components in", res.Rounds, "rounds")
//
// Algorithms other than the default Randomised Contraction are selected via
// Params.Algorithm; Randomised Contraction's randomisation method and
// space/speed variant via Params.Method and Params.Variant.
package dbcc

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/sql"
	"dbcc/internal/unionfind"
	"dbcc/internal/verify"
)

// Re-exported graph types: the edge-list representation of Sec. III.
type (
	// Graph is an undirected graph stored as an edge list; a loop edge
	// (v, v) represents an isolated vertex.
	Graph = graph.Graph
	// Edge is one undirected edge.
	Edge = graph.Edge
	// Labelling maps every vertex to its component label.
	Labelling = graph.Labelling
)

// ErrSpaceLimit is returned when an algorithm exceeds its live-space
// budget (the paper's "did not finish" outcome).
var ErrSpaceLimit = ccalg.ErrSpaceLimit

// RoundError is the typed failure an algorithm returns when a round
// fails (fault injection exhausting its retries, cancellation, a space
// limit): it carries the per-round statistics gathered up to the failure
// so callers can report partial progress. Unwrap exposes the underlying
// cause, so errors.Is(err, ErrSpaceLimit) still works.
type RoundError = ccalg.RoundError

// Config configures the embedded MPP cluster: segments, worker-pool
// bound, execution profile, per-statement deadline and memory budget, and
// the fault model. It is the engine's own option set; the zero value is
// an 8-segment MPP cluster with no deadline, no budget and no faults.
type Config = engine.Options

// Re-exported engine configuration types.
type (
	// FaultConfig is Config.Faults: deterministic fault injection and the
	// retry policy that absorbs it.
	FaultConfig = engine.FaultConfig
	// Profile is Config.Profile: the execution environment modelled.
	Profile = engine.Profile
)

// Execution profiles.
const (
	ProfileMPP      = engine.ProfileMPP      // a mature MPP database (HAWQ), the default
	ProfileSparkSQL = engine.ProfileSparkSQL // Spark SQL (Sec. VII-C): no map-side combine, per-query scheduling cost
)

// Algorithm names accepted by Params.Algorithm.
const (
	RandomisedContraction = "rc"   // the paper's contribution (default)
	HashToMin             = "hm"   // Rastogi et al. 2013
	TwoPhase              = "tp"   // Kiveris et al. 2014
	Cracker               = "cr"   // Lulli et al. 2017
	BFS                   = "bfs"  // naive min-propagation (MADlib)
	LocalContract         = "lc"   // Łącki et al. 2018, local contractions
	LogDiameter           = "ld"   // Andoni et al. 2018, log-diameter rounds
	Auto                  = "auto" // adaptive planner: pre-scan picks a driver
)

// Method selects Randomised Contraction's vertex-order randomisation.
type Method = ccalg.Method

// Randomisation methods (Sec. V-C).
const (
	FiniteFields = ccalg.FiniteFields // h(w) = A·w+B over GF(2^64) (default)
	GFPrime      = ccalg.GFPrime      // the SQL-only mod-p alternative
	Encryption   = ccalg.Encryption   // Blowfish with a fresh key per round
	RandomReals  = ccalg.RandomReals  // a materialised random number per vertex
)

// Variant selects Randomised Contraction's implementation (Sec. V-D).
type Variant = ccalg.Variant

// Implementation variants.
const (
	Fast = ccalg.Fast // Fig. 4: compose representative tables at the end
	Safe = ccalg.Safe // Fig. 3: deterministic linear space
)

// Params configures one connected-components run.
type Params struct {
	// Algorithm is one of the constants above; "" means Randomised
	// Contraction.
	Algorithm string
	// Seed drives all randomness; runs are reproducible per seed.
	Seed uint64
	// MaxLiveBytes aborts the run with ErrSpaceLimit when temporary
	// tables exceed this footprint; 0 means unlimited.
	MaxLiveBytes int64
	// Method and Variant apply to Randomised Contraction only.
	Method  Method
	Variant Variant
	// NoRerandomise reuses round-1 randomness for every round (for the
	// ablation of Sec. V-B's independence requirement).
	NoRerandomise bool
	// Deterministic disables randomisation (h = identity), recovering the
	// Sec. V-A "basic idea" with its Fig. 2(a) path worst case.
	Deterministic bool
	// KeepStats skips the engine-counter reset at the start of the run.
	// Solo callers want per-run accounting (the default); a multi-tenant
	// server runs many algorithms against one shared cluster whose
	// counters are a monotonic observability surface — resetting them
	// mid-soak would corrupt every window delta (plan-cache hit rates,
	// parse counts) computed from stats snapshots. Result.Stats is then
	// cumulative, not per-run.
	KeepStats bool
}

// Result is the outcome of a run.
type Result struct {
	// Labels assigns a component label to every vertex.
	Labels Labelling
	// Rounds is the number of algorithm rounds executed.
	Rounds int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Stats are the engine counters accumulated during the run: queries,
	// rows/bytes written (Table V), peak space (Table IV).
	Stats Stats
}

// Stats re-exports the engine's execution counters.
type Stats = engine.Stats

// DB is an embedded MPP database ready to run connected-components
// analyses. A DB is safe for concurrent use: multiple goroutines may run
// ConnectedComponents (or issue SQL through separate sessions) against one
// DB simultaneously — every run keeps its intermediate tables in a private
// namespace and the engine executes all sessions on one bounded worker
// pool. Per-run Stats are only meaningful when runs do not overlap; the
// cluster-wide counters are shared (see Cluster().ConcurrencyStats for the
// multi-session gauges).
type DB struct {
	c *engine.Cluster
	n atomic.Uint64 // scratch input-table name counter
}

// Open creates an embedded cluster with the paper's user-defined
// functions registered.
func Open(cfg Config) *DB {
	c := engine.NewCluster(cfg)
	ccalg.RegisterUDFs(c)
	return &DB{c: c}
}

// Close closes the DB. A spilling statement closes its own spill file as
// it finishes, so a DB holds nothing on disk between statements and Close
// has nothing to release today; it stays so callers can treat a DB like
// any other closable resource.
func (db *DB) Close() error { return db.c.Close() }

// Cluster exposes the underlying engine for advanced use (custom plans,
// statistics, UDF registration).
func (db *DB) Cluster() *engine.Cluster { return db.c }

// SQL returns a SQL session on the embedded cluster, with the paper's
// user-defined functions (axplusb, axbp, enc, hrand) pre-registered.
func (db *DB) SQL() *sql.Session { return sql.NewSession(db.c) }

// LoadGraph materialises g as a table named name with columns (v1, v2).
func (db *DB) LoadGraph(name string, g *Graph) error {
	return graph.Load(db.c, name, g)
}

// ConnectedComponents loads g into a scratch table, runs the selected
// algorithm and returns the labelling with run metrics. The scratch table
// is removed afterwards; engine statistics cover only this run.
func (db *DB) ConnectedComponents(g *Graph, p Params) (*Result, error) {
	return db.ConnectedComponentsCtx(context.Background(), g, p)
}

// ConnectedComponentsCtx is ConnectedComponents under a caller context:
// cancelling ctx (or its deadline expiring) aborts the run between
// operators and segment tasks, returning a *RoundError that carries the
// rounds completed so far.
func (db *DB) ConnectedComponentsCtx(ctx context.Context, g *Graph, p Params) (*Result, error) {
	table := fmt.Sprintf("cc_input_%d", db.n.Add(1))
	if err := db.LoadGraph(table, g); err != nil {
		return nil, err
	}
	defer db.c.DropTable(table)
	return db.ConnectedComponentsOfCtx(ctx, table, p)
}

// ConnectedComponentsOf runs the selected algorithm against an existing
// two-column edge table (for data already resident in the database — the
// paper's motivating scenario).
//
// The engine's statistics counters are reset at the start of the run so a
// solo run's Result.Stats covers exactly that run, matching the paper's
// per-algorithm accounting. When several runs execute concurrently they
// share those counters, so per-run Stats are best-effort; labellings are
// always exact.
func (db *DB) ConnectedComponentsOf(table string, p Params) (*Result, error) {
	return db.ConnectedComponentsOfCtx(context.Background(), table, p)
}

// ConnectedComponentsOfCtx is ConnectedComponentsOf under a caller
// context (see ConnectedComponentsCtx).
func (db *DB) ConnectedComponentsOfCtx(ctx context.Context, table string, p Params) (*Result, error) {
	name := p.Algorithm
	if name == "" {
		name = RandomisedContraction
	}
	info, ok := ccalg.ByName(name)
	if !ok {
		return nil, fmt.Errorf("dbcc: unknown algorithm %q", name)
	}
	if !p.KeepStats {
		db.c.ResetStats()
	}
	opts := ccalg.Options{
		Context:      ctx,
		Seed:         p.Seed,
		MaxLiveBytes: p.MaxLiveBytes,
		RC: ccalg.RCOptions{
			Method:        p.Method,
			Variant:       p.Variant,
			NoRerandomise: p.NoRerandomise,
			Deterministic: p.Deterministic,
		},
	}
	start := time.Now()
	res, err := info.Run(db.c, table, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Labels:  res.Labels,
		Rounds:  res.Rounds,
		Elapsed: time.Since(start),
		Stats:   db.c.Stats(),
	}, nil
}

// IndexEvent is one component-index change delivered to a Watch: a
// merge of From's component into To's (Kind IndexEventMerge), or a full
// relabelling after a delete-triggered rebuild (Kind IndexEventRebuild —
// re-read labels via SQL or ComponentLabels). Seq is monotonic per index
// and gap-free per subscription.
type IndexEvent = engine.IndexEvent

// Watch event kinds.
const (
	IndexEventMerge   = engine.IndexEventMerge
	IndexEventRebuild = engine.IndexEventRebuild
)

// Watch is a live subscription to a table's component index; receive
// from C until Close. A subscriber that stops draining C is disconnected
// (C is closed) rather than allowed to stall index maintenance.
type Watch = engine.IndexSub

// CreateComponentIndex builds an incremental connected-components index
// over an existing two-column edge table: INSERTs update the labelling
// with bounded union-find work per statement, and a DELETE that removes
// rows rebuilds the union-find from the table's surviving rows inside the
// engine, issuing no SQL. Equivalent to the SQL statement
// CREATE COMPONENT INDEX ON table.
func (db *DB) CreateComponentIndex(table string) error {
	return db.c.CreateComponentIndex(table)
}

// DropComponentIndex removes a table's component index and closes its
// subscriptions.
func (db *DB) DropComponentIndex(table string) error {
	return db.c.DropComponentIndex(table)
}

// ComponentLabels snapshots the maintained labelling of an indexed
// table: every vertex seen so far mapped to its component's current
// representative. Labels are representatives, not canonical minima —
// compare label equality, not label values.
func (db *DB) ComponentLabels(table string) (Labelling, error) {
	idx, ok := db.c.ComponentIndex(table)
	if !ok {
		return nil, fmt.Errorf("dbcc: table %q has no component index", table)
	}
	return idx.Labels(), nil
}

// Watch subscribes to a table's component index, delivering label-change
// events with a monotonic sequence number as inserts merge components
// and deletes trigger rebuilds. The table must have been indexed with
// CreateComponentIndex (or CREATE COMPONENT INDEX ON t).
func (db *DB) Watch(table string) (*Watch, error) {
	idx, ok := db.c.ComponentIndex(table)
	if !ok {
		return nil, fmt.Errorf("dbcc: table %q has no component index", table)
	}
	return idx.Subscribe(), nil
}

// Verify checks a labelling against the sequential Union/Find oracle,
// returning nil when it is a correct connected-components labelling of g.
func Verify(g *Graph, l Labelling) error { return verify.Labelling(g, l) }

// SequentialComponents computes the labelling with the classical
// Union/Find algorithm — the single-machine baseline of the paper's
// introduction.
func SequentialComponents(g *Graph) Labelling { return unionfind.Components(g) }

// ReadGraph parses a whitespace-separated edge list ("v w" per line,
// '#' comments allowed).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// Dataset generators, re-exported from the datagen substrate. See
// DESIGN.md §1 for how each stands in for the paper's Table II datasets.

// GeneratePath returns the sequentially numbered n-vertex path graph.
func GeneratePath(n int) *Graph { return datagen.Path(n) }

// GeneratePathUnion returns a union of k paths with adversarial numbering.
func GeneratePathUnion(k, totalVertices int) *Graph { return datagen.PathUnion(k, totalVertices) }

// GenerateRMAT returns an R-MAT graph with the paper's parameters.
func GenerateRMAT(scale, edges int, seed uint64) *Graph {
	return datagen.RMAT(scale, edges, 0.57, 0.19, 0.19, 0.05, seed)
}

// GenerateImage2D returns an "Andromeda"-style pixel-similarity graph: a
// giant background plus power-law-sized objects, so component sizes are
// scale-free (Fig. 5). Object count scales with the image area.
func GenerateImage2D(width, height int, seed uint64) *Graph {
	return datagen.Image2D(width, height, width*height/25, 1.1, 0.2, seed)
}

// GenerateVideo3D returns a "Candels"-style volumetric pixel graph.
func GenerateVideo3D(width, height, frames int, seed uint64) *Graph {
	return datagen.Video3D(width, height, frames, width*height*frames/2000, 1.1, 0.04, seed)
}

// GenerateBitcoin returns a transaction/address bipartite graph for the
// address-clustering use case of Sec. VII-A.
func GenerateBitcoin(numTx int, seed uint64) *Graph { return datagen.Bitcoin(numTx, seed) }

// GenerateFriendster returns a single-component social graph.
func GenerateFriendster(n, avgDegreeHalf int, seed uint64) *Graph {
	return datagen.Friendster(n, avgDegreeHalf, seed)
}
