// Package ccalg implements the registry of distributed connected-components
// drivers (Algorithms, plus the adaptive planner Auto), every one of them a
// program of prepared SQL rounds issued through the SQL layer, the way the
// paper ran its own algorithm and ported its contenders to HAWQ (Sec. VII):
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
//     propagation tree;
//   - LocalContract and LogDiameter — the frontier drivers in the style of
//     arXiv:1807.10727 and arXiv:1805.03055.
//
// Every algorithm takes an input table of two-column edge rows, whatever
// its columns are called (loop edges representing isolated vertices), and
// produces a labelling. A configurable live-space budget reproduces the
// paper's "did not finish" outcomes: runs whose temporary tables exceed
// the budget abort with ErrSpaceLimit, which is how Hash-to-Min and
// Cracker fail on the path datasets in Table III.
package ccalg

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/sql"
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
	// Algorithm is the short registry name of the driver that was running
	// ("rc", ...). An auto run names its pre-scan "auto", then the planned
	// driver ("rc" for rc-det), then "tp" once the fallback has begun.
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
	// LiveVertices is the number of vertices participating in the round
	// (algorithm-specific: contraction survivors for RC, the vertices
	// entering the round for Two-Phase and the frontier drivers, labelled
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

func init() { sql.RunConnectedComponents = runStatement }

// runStatement is the driver of SQL's CONNECTED COMPONENTS OF: the named
// registry algorithm (or auto) over a catalog table, with default options
// under ctx.
func runStatement(ctx context.Context, c *engine.Cluster, table, alg string, seed uint64) (int64, int64, int64, error) {
	info, ok := ByName(alg)
	if !ok {
		return 0, 0, 0, fmt.Errorf("ccalg: unknown algorithm %q", alg)
	}
	res, err := info.Run(c, table, Options{Context: ctx, Seed: seed})
	if err != nil {
		return 0, 0, 0, err
	}
	return int64(res.Labels.NumComponents()), int64(res.Rounds), int64(len(res.Labels)), nil
}

// runSeq numbers algorithm runs so each gets a private temp-table
// namespace; concurrent runs on one cluster never collide on the names of
// their intermediate tables.
var runSeq atomic.Uint64

// run wraps the per-algorithm bookkeeping shared by all implementations:
// the run-private temp-table namespace, the one statement path, the one
// round loop, the space budget check and temp-table cleanup. The temps set
// holds catalog (physical) names.
type run struct {
	c        *engine.Cluster
	maxBytes int64
	ns       string
	temps    map[string]struct{}
	// s is the run's SQL session, carrying the run's context so
	// cancellation reaches every statement. It has no namespace of its
	// own: every table is bound by its catalog name — the caller's input
	// as given, temps through tab — so no temp can shadow the input, and
	// concurrent runs never collide because temp names carry ns.
	s *sql.Session
	// stmts holds each statement shape's prepared handle: a shape is
	// parsed once per run, and its plan template is cached engine-wide
	// (every table is a parameter, so templates are shared across runs).
	stmts map[string]*sql.Prepared

	// alg names the driver running now, for errors: Auto switches it as
	// it moves from its pre-scan to the planned driver and the fallback.
	alg     string
	onRound func(RoundStats)
	// watch, when set, sees every round that is not the run's last; an
	// error from it ends the round loop with that error.
	watch func(RoundStats) error
	log   []RoundStats
}

func newRun(c *engine.Cluster, opts Options, alg string) *run {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ns := fmt.Sprintf("run%d_", runSeq.Add(1))
	return &run{
		c:        c,
		maxBytes: opts.MaxLiveBytes,
		ns:       ns,
		temps:    make(map[string]struct{}),
		s:        sql.NewSession(c).WithContext(ctx),
		stmts:    make(map[string]*sql.Prepared),
		alg:      alg,
		onRound:  opts.OnRound,
	}
}

// body is a driver: it runs its rounds through run.rounds and returns the
// run-private (v, r) table holding the labelling.
type body func(r *run, input string) (string, error)

// drive runs a driver body under the contract every driver shares: input
// validation, a fresh run, the read-out of the body's label table,
// temp-table cleanup, and a RoundError carrying the partial round log on
// failure.
func drive(c *engine.Cluster, input string, opts Options, alg string, b body) (*Result, error) {
	if err := validateInput(c, input); err != nil {
		return nil, err
	}
	r := newRun(c, opts, alg)
	labels, err := b(r, input)
	var res *Result
	if err == nil {
		res, err = r.result(labels)
	}
	if err != nil {
		// Best-effort: the run's own failure is the error to report.
		_ = r.dropTemps()
		return nil, &RoundError{
			Algorithm: r.alg,
			Round:     len(r.log) + 1,
			RoundLog:  append([]RoundStats(nil), r.log...),
			Err:       err,
		}
	}
	return res, nil
}

// result reads the labelling out of the run-private (v, r) table, drops
// every temp table still live and builds the run's Result.
func (r *run) result(table string) (*Result, error) {
	rows, err := r.c.ReadAll(r.t(table))
	if err != nil {
		return nil, err
	}
	labels, err := graph.FromRows(rows)
	if err != nil {
		return nil, err
	}
	if err := r.dropTemps(); err != nil {
		return nil, err
	}
	return &Result{Labels: labels, Rounds: len(r.log), RoundLog: r.log}, nil
}

// rounds is the one round loop: it runs round until it reports done. It
// numbers the rounds (continuing the run's log, so a fallback driver's
// rounds follow the abandoned ones), bounds them by maxRounds, takes each
// round's counter deltas, and logs and streams its RoundStats. Rounds that
// are not the last are shown to the run's watch.
func (r *run) rounds(round func() (liveV, liveE int64, done bool, err error)) error {
	for {
		n := len(r.log) + 1
		if n > maxRounds {
			return fmt.Errorf("ccalg: %s exceeded %d rounds", r.alg, maxRounds)
		}
		s0 := r.c.Stats()
		liveV, liveE, done, err := round()
		if err != nil {
			return err
		}
		s := r.c.Stats()
		rs := RoundStats{
			Round:        n,
			LiveVertices: liveV,
			LiveEdges:    liveE,
			Queries:      s.Queries - s0.Queries,
			RowsWritten:  s.RowsWritten - s0.RowsWritten,
			BytesWritten: s.BytesWritten - s0.BytesWritten,
			Parses:       s.Parses - s0.Parses,
			PlanHits:     s.PlanCacheHits - s0.PlanCacheHits,
			PlanMisses:   s.PlanCacheMisses - s0.PlanCacheMisses,
		}
		r.log = append(r.log, rs)
		if r.onRound != nil {
			r.onRound(rs)
		}
		if done {
			return nil
		}
		if r.watch != nil {
			if err := r.watch(rs); err != nil {
				return err
			}
		}
	}
}

// t maps a logical temp-table name to its run-private catalog name. Input
// tables are referenced by their own (global) names and never pass through
// here.
func (r *run) t(name string) string { return r.ns + name }

// tab binds the run temp table name to a table parameter; the caller's
// input is bound as sql.Table(input).
func (r *run) tab(name string) sql.Arg { return sql.Table(r.t(name)) }

// checkSpace enforces the live-space budget. Under concurrent sessions the
// footprint is the cluster-wide total, matching the paper's shared-storage
// "did not finish" condition.
func (r *run) checkSpace() error {
	if r.maxBytes > 0 && r.c.LiveBytes() > r.maxBytes {
		return ErrSpaceLimit
	}
	return nil
}

// stmt returns the prepared handle of a statement shape, parsing the
// shape on its first use in the run.
func (r *run) stmt(src string) (*sql.Prepared, error) {
	if h, ok := r.stmts[src]; ok {
		return h, nil
	}
	h, err := r.s.Prepare(src)
	if err != nil {
		return nil, err
	}
	r.stmts[src] = h
	return h, nil
}

// prepare parses shapes ahead of their first use, for drivers whose later
// rounds run statements the first round may not: rounds after the first
// stay parse-free.
func (r *run) prepare(srcs ...string) error {
	for _, src := range srcs {
		if _, err := r.stmt(src); err != nil {
			return err
		}
	}
	return nil
}

// exec runs a statement shape with args bound to $1... and returns the
// rows it wrote.
func (r *run) exec(src string, args ...sql.Arg) (int64, error) {
	h, err := r.stmt(src)
	if err != nil {
		return 0, err
	}
	return h.Exec(args...)
}

// create runs a CREATE TABLE AS shape with $1 bound to the run-private
// target table and args to $2..., tracks the new table for cleanup and
// applies the space check. It returns the rows written.
func (r *run) create(target, src string, args ...sql.Arg) (int64, error) {
	n, err := r.exec(src, append([]sql.Arg{r.tab(target)}, args...)...)
	if err != nil {
		return 0, err
	}
	r.temps[r.t(target)] = struct{}{}
	return n, r.checkSpace()
}

// count runs an aggregate shape — a count, or a MAX or SUM — without
// materialising anything and returns its value. An aggregate over no rows
// yields no row, or NULL for MAX and SUM; both read as 0.
func (r *run) count(src string, args ...sql.Arg) (int64, error) {
	var n int64
	return n, r.counts(src, args, &n)
}

// counts is count for a shape of several aggregates: it stores the
// first len(outs) columns of its row in outs, in order, each read as
// count reads its one.
func (r *run) counts(src string, args []sql.Arg, outs ...*int64) error {
	h, err := r.stmt(src)
	if err != nil {
		return err
	}
	_, rows, err := h.Query(args...)
	if err != nil {
		return err
	}
	for i, o := range outs {
		*o = 0
		if len(rows) > 0 && !rows[0][i].Null {
			*o = rows[0][i].Int
		}
	}
	return nil
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

// replace drops table name and renames next to it: the rename dance that
// lets every round's statements read the same table names.
func (r *run) replace(name, next string) error {
	if err := r.drop(name); err != nil {
		return err
	}
	return r.rename(next, name)
}

// dropTemps drops every temp table still live. It tries them all and
// returns the failures; tables it could not drop stay tracked.
func (r *run) dropTemps() error {
	var errs []error
	for n := range r.temps {
		if err := r.c.DropTable(n); err != nil {
			errs = append(errs, err)
			continue
		}
		delete(r.temps, n)
	}
	return errors.Join(errs...)
}

// The statement shapes several drivers share. Every table is a $N
// parameter, so one shape serves every round's renamed tables. Tables the
// drivers create name edge columns (v, w) and label columns (v, r); shapes
// that accept tables of either kind, or the caller's input, read them
// through an alias column list, so stored column names never matter.
const (
	// sqlSymmetric is Appendix A's setup query: the input $2 with every
	// edge in both orientations, distributed by the first column.
	sqlSymmetric = `
		create table $1 as
		select v1, v2 from $2 as e (v1, v2)
		union all
		select v2, v1 from $2 as e2 (v1, v2)
		distributed by (v1)`
	// sqlClosedMin labels every vertex of the symmetric edge table $2 with
	// the minimum of its closed neighbourhood.
	sqlClosedMin = `
		create table $1 as
		select v, least(v, min(w)) as r from $2 as e (v, w) group by v
		distributed by (v)`
	// sqlGroupMin maps every first-column value of $2 to its minimum
	// second-column value.
	sqlGroupMin = `
		create table $1 as
		select v, min(w) as r from $2 as t (v, w) group by v
		distributed by (v)`
	// sqlCountChanged counts the vertices whose label differs between the
	// labellings $1 and $2.
	sqlCountChanged = `
		select count(*) as n from $1 as a (v, r), $2 as b (v, r)
		where a.v = b.v and a.r != b.r`
	// sqlCountUnion counts the distinct rows of two two-column tables
	// together: with equal cardinalities, the tables hold the same set
	// exactly when this count equals either's.
	sqlCountUnion = `
		select count(*) as n from (
			select distinct x, y from (
				select x, y from $1 as a (x, y)
				union all
				select x, y from $2 as b (x, y)) as u) as d`
)

// symmetric returns the edge table bound to parameter p as a derived
// table of (v, w) rows holding every edge in both orientations — the
// setup query as a FROM item, for statements that consume it in place.
func symmetric(p string) string {
	return `(select v, w from ` + p + ` as e (v, w) union all select w, v from ` + p + ` as e2 (v, w))`
}

// edgeSet returns symmetric(p) deduplicated and without loops: the live
// edge set most drivers start from.
func edgeSet(p string) string {
	return `(select distinct v, w from ` + symmetric(p) + ` as s where v != w)`
}

// Input-reading shapes built from the derived tables above.
var (
	// sqlEdges materialises edgeSet($2).
	sqlEdges = `create table $1 as select v, w from ` + edgeSet("$2") + ` as ed distributed by (v)`
	// sqlVertices materialises the input's vertex set, one (v) row each.
	sqlVertices = `create table $1 as select v from ` + symmetric("$2") + ` as s group by v distributed by (v)`
)

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
