// Package ccalg implements the five distributed connected-components
// algorithms of the paper's evaluation, all executing on the MPP engine:
//
//   - RandomisedContraction — the paper's contribution (Sec. V), driven by
//     the literal SQL of Appendix A, in the Fig. 3 (deterministic space)
//     and Fig. 4 (fast) variants and all four randomisation methods;
//   - BFS — the naive min-propagation strategy of Sec. IV, which is how
//     Apache MADlib computes connected components;
//   - HashToMin — Rastogi et al. (ICDE 2013), O(log|V|) rounds but
//     O(|V|²) worst-case space;
//   - TwoPhase — Kiveris et al. (SoCC 2014), alternating large-star /
//     small-star, Θ(log²|V|) rounds with linear space;
//   - Cracker — Lulli et al. (TPDS 2017), vertex pruning with a
//     propagation tree.
//
// Every algorithm takes an input table of (v1, v2) edge rows (loop edges
// representing isolated vertices) and produces a labelling. A configurable
// live-space budget reproduces the paper's "did not finish" outcomes: runs
// whose temporary tables exceed the budget abort with ErrSpaceLimit, which
// is how Hash-to-Min and Cracker fail on the path datasets in Table III.
package ccalg

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"dbcc/internal/engine"
	"dbcc/internal/graph"
)

// ErrSpaceLimit is returned when an algorithm's live table footprint
// exceeds Options.MaxLiveBytes — the reproduction's analogue of the paper's
// algorithms exhausting cluster storage ("did not finish").
var ErrSpaceLimit = errors.New("ccalg: live space budget exceeded; algorithm did not finish")

// maxRounds bounds iteration counts defensively; every algorithm here
// provably terminates long before this on any input that fits in memory.
const maxRounds = 100000

// RoundError is the graceful-degradation wrapper for a round that failed
// mid-algorithm (cancellation, timeout, retry exhaustion, space budget):
// it carries the identity of the failed round and the statistics of every
// round completed before it, so callers can report partial progress
// instead of losing the whole run. errors.Is/As see through it to the
// underlying cause via Unwrap.
type RoundError struct {
	// Algorithm is the short registry name of the failed run ("rc", ...).
	Algorithm string
	// Round is the 1-based round that failed (one past the last completed
	// round).
	Round int
	// RoundLog holds the statistics of every round completed before the
	// failure, in order — the partial progress of the run.
	RoundLog []RoundStats
	// Err is the underlying failure.
	Err error
}

func (e *RoundError) Error() string {
	return fmt.Sprintf("ccalg: %s failed in round %d (%d rounds completed): %v",
		e.Algorithm, e.Round, len(e.RoundLog), e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *RoundError) Unwrap() error { return e.Err }

// Options configures an algorithm run.
type Options struct {
	// Seed drives all randomness; runs are reproducible for a fixed seed.
	Seed uint64
	// Context, when non-nil, bounds the run: cancelling it (or its
	// deadline expiring) aborts the algorithm between queries and between
	// segment tasks, returning a RoundError wrapping the cancellation.
	Context context.Context
	// MaxLiveBytes aborts the run with ErrSpaceLimit when the cluster's
	// live table footprint exceeds it; 0 means unlimited.
	MaxLiveBytes int64
	// OnRound, when non-nil, streams every completed round's statistics as
	// it finishes — the live form of Result.RoundLog.
	OnRound func(RoundStats)
	// RC holds the Randomised Contraction specific knobs; ignored by the
	// other algorithms.
	RC RCOptions
}

// RoundStats is the per-round measurement stream of an algorithm run: the
// observable the paper's evaluation is built on (rows and bytes written
// per round, Tables IV–V; the exponential shrinkage of the live graph,
// Figs. 6–9). Queries, RowsWritten and BytesWritten are deltas of the
// cluster counters over the round, so when several runs share one cluster
// concurrently they are best-effort, like per-run Stats.
type RoundStats struct {
	// Round numbers rounds from 1 in execution order.
	Round int
	// LiveVertices is the number of vertices still participating after the
	// round (algorithm-specific: contraction survivors for RC, labelled
	// vertices during propagation phases).
	LiveVertices int64
	// LiveEdges is the size of the live graph state after the round (edge
	// rows for RC/Two-Phase/Cracker/BFS, cluster-state rows for
	// Hash-to-Min, whose quadratic growth is its failure mode).
	LiveEdges int64
	// Queries is the number of SQL statements the round issued.
	Queries int64
	// RowsWritten and BytesWritten are the write volume of the round.
	RowsWritten  int64
	BytesWritten int64
	// Parses, PlanHits and PlanMisses are the round's deltas of the SQL
	// layer's parse and plan-cache counters: with prepared round loops,
	// Parses stays zero after round one and PlanHits tracks Queries.
	Parses     int64
	PlanHits   int64
	PlanMisses int64
}

// Result is the outcome of an algorithm run.
type Result struct {
	// Labels assigns every vertex of the input graph a component label.
	Labels graph.Labelling
	// Rounds is the number of contraction / propagation rounds executed
	// (algorithm-specific granularity; for RC it is the number of
	// contraction steps, the paper's "number of SQL queries" up to the
	// constant per-round query count).
	Rounds int
	// RoundLog is the per-round measurement stream, one entry per executed
	// round in order.
	RoundLog []RoundStats
}

// Func runs one algorithm against the named input table on the cluster.
type Func func(c *engine.Cluster, input string, opts Options) (*Result, error)

// Info describes an algorithm for registries, Table I and CLI listings.
type Info struct {
	Name      string // short key, e.g. "rc"
	FullName  string // display name as in the paper's tables
	StepsBig0 string // round complexity from Table I
	SpaceBig0 string // space complexity from Table I
	Run       Func
}

// Algorithms returns the registry of the five algorithms in the paper's
// Table I/III order, with their proven complexities (Table I), followed by
// the two frontier drivers (local contraction and log-diameter).
func Algorithms() []Info {
	return []Info{
		{Name: "rc", FullName: "Randomised Contraction",
			StepsBig0: "exp. O(log |V|)", SpaceBig0: "exp. O(|E|)", Run: RandomisedContraction},
		{Name: "hm", FullName: "Hash-to-Min",
			StepsBig0: "O(log |V|)", SpaceBig0: "O(|V|^2)", Run: HashToMin},
		{Name: "tp", FullName: "Two-Phase",
			StepsBig0: "O(log^2 |V|)", SpaceBig0: "O(|E|)", Run: TwoPhase},
		{Name: "cr", FullName: "Cracker",
			StepsBig0: "O(log |V|)", SpaceBig0: "O(|V|*|E|/log |V|)", Run: Cracker},
		{Name: "bfs", FullName: "Breadth First Search (MADlib)",
			StepsBig0: "O(diameter)", SpaceBig0: "O(|E|)", Run: BFS},
		{Name: "lc", FullName: "Local Contraction",
			StepsBig0: "O(log |V|)", SpaceBig0: "O(|E|)", Run: LocalContract},
		{Name: "ld", FullName: "Log-Diameter",
			StepsBig0: "O(log D)", SpaceBig0: "O(|E|^(1+eps))", Run: LogDiameter},
	}
}

// AutoInfo describes the adaptive planner. It is not part of Algorithms()
// — Auto is a meta-driver that picks one of the registered algorithms per
// graph, so registries that enumerate the underlying drivers (Table I,
// the property matrix) would double-count it.
func AutoInfo() Info {
	return Info{Name: "auto", FullName: "Adaptive planner",
		StepsBig0: "per plan", SpaceBig0: "per plan", Run: Auto}
}

// ByName returns the registered algorithm with the given short name, or
// the adaptive planner for "auto".
func ByName(name string) (Info, bool) {
	for _, a := range Algorithms() {
		if a.Name == name {
			return a, true
		}
	}
	if a := AutoInfo(); a.Name == name {
		return a, true
	}
	return Info{}, false
}

// runSeq numbers algorithm runs so each gets a private temp-table
// namespace; concurrent runs on one cluster never collide on the names of
// their intermediate tables.
var runSeq atomic.Uint64

// run wraps the per-algorithm bookkeeping shared by all implementations:
// the run-private temp-table namespace, the space budget check and
// temp-table cleanup on failure. The temps set holds catalog (physical)
// names.
type run struct {
	c        *engine.Cluster
	ctx      context.Context
	maxBytes int64
	ns       string
	temps    map[string]struct{}

	onRound  func(RoundStats)
	roundLog []RoundStats
	// Counter snapshot at the start of the current round, for the deltas.
	round0 engine.Stats
}

func newRun(c *engine.Cluster, opts Options) *run {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &run{
		c:        c,
		ctx:      ctx,
		maxBytes: opts.MaxLiveBytes,
		ns:       fmt.Sprintf("run%d_", runSeq.Add(1)),
		temps:    make(map[string]struct{}),
		onRound:  opts.OnRound,
	}
}

// roundError wraps a mid-algorithm failure in a RoundError carrying the
// run's partial round log. Errors that already are RoundErrors pass
// through unchanged (nested drivers).
func (r *run) roundError(alg string, err error) error {
	if err == nil {
		return nil
	}
	var re *RoundError
	if errors.As(err, &re) {
		return err
	}
	return &RoundError{
		Algorithm: alg,
		Round:     len(r.roundLog) + 1,
		RoundLog:  append([]RoundStats(nil), r.roundLog...),
		Err:       err,
	}
}

// beginRound snapshots the cluster counters so endRound can report the
// round's query count and write volume as deltas.
func (r *run) beginRound() {
	r.round0 = r.c.Stats()
}

// endRound closes the current round: it records the round's statistics in
// the run log and streams them to the OnRound callback if set.
func (r *run) endRound(liveVertices, liveEdges int64) {
	s, s0 := r.c.Stats(), r.round0
	rs := RoundStats{
		Round:        len(r.roundLog) + 1,
		LiveVertices: liveVertices,
		LiveEdges:    liveEdges,
		Queries:      s.Queries - s0.Queries,
		RowsWritten:  s.RowsWritten - s0.RowsWritten,
		BytesWritten: s.BytesWritten - s0.BytesWritten,
		Parses:       s.Parses - s0.Parses,
		PlanHits:     s.PlanCacheHits - s0.PlanCacheHits,
		PlanMisses:   s.PlanCacheMisses - s0.PlanCacheMisses,
	}
	r.roundLog = append(r.roundLog, rs)
	if r.onRound != nil {
		r.onRound(rs)
	}
}

// t maps a logical temp-table name to its run-private catalog name. Input
// tables are referenced by their own (global) names and never pass through
// here.
func (r *run) t(name string) string { return r.ns + name }

// scan returns a plan reading a run-private temp table.
func (r *run) scan(name string) engine.Plan { return engine.Scan(r.t(name)) }

// checkSpace enforces the live-space budget. Under concurrent sessions the
// footprint is the cluster-wide total, matching the paper's shared-storage
// "did not finish" condition.
func (r *run) checkSpace() error {
	if r.maxBytes > 0 && r.c.LiveBytes() > r.maxBytes {
		return ErrSpaceLimit
	}
	return nil
}

// create materialises a plan as a run-private temp table and applies the
// space check.
func (r *run) create(name string, p engine.Plan, distKey int) (int64, error) {
	phys := r.t(name)
	n, err := r.c.CreateTableAsCtx(r.ctx, phys, p, distKey)
	if err != nil {
		return 0, err
	}
	r.temps[phys] = struct{}{}
	return n, r.checkSpace()
}

// drop removes run-private temp tables.
func (r *run) drop(names ...string) error {
	for _, n := range names {
		phys := r.t(n)
		if err := r.c.DropTable(phys); err != nil {
			return err
		}
		delete(r.temps, phys)
	}
	return nil
}

// rename renames a run-private temp table, keeping the cleanup set
// consistent.
func (r *run) rename(oldName, newName string) error {
	physOld, physNew := r.t(oldName), r.t(newName)
	if err := r.c.RenameTable(physOld, physNew); err != nil {
		return err
	}
	delete(r.temps, physOld)
	r.temps[physNew] = struct{}{}
	return nil
}

// cleanup drops any temp tables still live (used on error paths).
func (r *run) cleanup() {
	for n := range r.temps {
		_ = r.c.DropTable(n)
	}
	r.temps = map[string]struct{}{}
}

// labelsOf reads a run-private (v, rep) table into a labelling.
func (r *run) labelsOf(table string) (graph.Labelling, error) {
	rows, err := r.c.ReadAll(r.t(table))
	if err != nil {
		return nil, err
	}
	return graph.FromRows(rows)
}

// countRows runs a counting query over a plan without materialising it.
func countRows(ctx context.Context, c *engine.Cluster, p engine.Plan) (int64, error) {
	counted := engine.GroupBy(p, nil, engine.Agg{Op: engine.AggCount, Name: "n"})
	_, rows, err := c.QueryCtx(ctx, counted)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	return rows[0][0].Int, nil
}

// symmetric returns the standard setup plan: the input edge table unioned
// with its swap, giving each undirected edge both orientations (the first
// query of Appendix A).
func symmetric(input string) engine.Plan {
	fwd := engine.Project(engine.Scan(input),
		engine.ProjCol{Expr: engine.Col(0), Name: "v"},
		engine.ProjCol{Expr: engine.Col(1), Name: "w"})
	rev := engine.Project(engine.Scan(input),
		engine.ProjCol{Expr: engine.Col(1), Name: "v"},
		engine.ProjCol{Expr: engine.Col(0), Name: "w"})
	return engine.UnionAll(fwd, rev)
}

// validateInput checks the algorithm input contract.
func validateInput(c *engine.Cluster, input string) error {
	t, ok := c.Table(input)
	if !ok {
		return fmt.Errorf("ccalg: input table %q does not exist", input)
	}
	if len(t.Schema) != 2 {
		return fmt.Errorf("ccalg: input table %q must have exactly two columns, has %v", input, t.Schema)
	}
	return nil
}
