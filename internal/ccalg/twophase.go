package ccalg

import (
	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

// TwoPhase is the algorithm of Kiveris et al. ("Connected components in
// MapReduce and beyond", SoCC 2014): rounds alternate a large-star and a
// small-star operation on the edge set until a fixpoint, at which the edge
// set is a star forest whose centres are the component minima.
//
//   - large-star: every vertex v connects each strictly larger neighbour
//     to the minimum of v's closed neighbourhood;
//   - small-star: every vertex v connects each smaller neighbour and
//     itself to that minimum.
//
// Both operations preserve connectivity and never increase the edge count.
// Two-Phase is the space-optimal contender of the paper's Table I/IV: the
// stored state is one row per undirected edge (both star outputs are
// naturally of the form (u, m) with u > m, so edges are kept in canonical
// larger-first order and the symmetric view is expanded only inside the
// per-round pipeline, never materialised). The price is Θ(log²|V|)
// rounds — and the pathological round count on the adversarially numbered
// PathUnion dataset (Table III).
func TwoPhase(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "tp", runTwoPhase)
}

// Two-Phase's statement shapes. The canonical edge table $2 is expanded
// to both orientations, symmetric("$2"), inside each statement only;
// grouping that by v yields m(v) = min N[v].
var (
	// tpSQLCanonical is the initial working edge set: canonical (larger,
	// smaller) order, deduplicated, loops dropped (isolated vertices are
	// reattached at labelling time).
	tpSQLCanonical = `
		create table $1 as
		select distinct v, w from ` + symmetric("$2") + ` as s where v > w
		distributed by (v)`
	// tpSQLMin: m(v), the minimum of v's closed neighbourhood.
	tpSQLMin = `
		create table $1 as
		select v, least(v, min(w)) as m from ` + symmetric("$2") + ` as s group by v
		distributed by (v)`
	// tpSQLLarge: the large-star output {(u, m(v)) : u ∈ N(v), u > v}.
	tpSQLLarge = `
		create table $1 as
		select distinct s.w as v, m.m as w
		from ` + symmetric("$2") + ` as s, $3 as m
		where s.v = m.v and s.w > s.v and s.w != m.m
		distributed by (v)`
	// tpSQLSmall: the small-star output {(u, m(v)) : u ∈ N(v), u < v} ∪
	// {(v, m(v))}.
	tpSQLSmall = `
		create table $1 as
		select distinct v, w from (
			select s.w as v, m.m as w
			from ` + symmetric("$2") + ` as s, $3 as m
			where s.v = m.v and s.w < s.v
			union all
			select v, m from $3 as m2) as x
		where v != w
		distributed by (v)`
	// tpSQLLabel labels the vertices $2 by the star forest $3: a vertex's
	// label is its centre, or itself when it has no edge left.
	tpSQLLabel = `
		create table $1 as
		select a.v, least(a.v, sl.m) as r
		from $2 as a left join (select v, min(w) as m from $3 as e group by v) as sl on a.v = sl.v
		distributed by (v)`
)

func runTwoPhase(r *run, input string) (string, error) {
	size, err := r.create("tp_e", tpSQLCanonical, sql.Table(input))
	if err != nil {
		return "", err
	}
	// All original vertices, for the final labelling.
	if _, err := r.create("tp_v", sqlVertices, sql.Table(input)); err != nil {
		return "", err
	}
	// The set comparison runs only when a star leaves the edge count
	// unchanged; prepare it now so whichever round first needs it stays
	// parse-free.
	if err := r.prepare(sqlCountUnion); err != nil {
		return "", err
	}

	// size is tp_e's cardinality, as the CREATE TABLE AS that wrote it
	// reported: each star's change check compares it with the output's.
	err = r.rounds(func() (int64, int64, bool, error) {
		_, large, err := tpStar(r, tpSQLLarge)
		if err != nil {
			return 0, 0, false, err
		}
		changed, err := tpStarChanged(r, size, large)
		if err != nil {
			return 0, 0, false, err
		}
		liveV, small, err := tpStar(r, tpSQLSmall)
		if err != nil {
			return 0, 0, false, err
		}
		changed2, err := tpStarChanged(r, large, small)
		size = small
		return liveV, small, !changed && !changed2, err
	})
	if err != nil {
		return "", err
	}

	// The fixpoint is a star forest in canonical order: every edge is
	// (member, centre) with centre the component minimum.
	_, err = r.create("tp_result", tpSQLLabel, r.tab("tp_v"), r.tab("tp_e"))
	return "tp_result", err
}

// tpStar applies one star operation (the tpSQLLarge or tpSQLSmall shape)
// to tp_e, leaving the previous edge set in tp_prev for the change check.
// The rename dance keeps the tp_e / tp_m / tp_prev names stable across
// rounds. It returns the live vertex count (the vertices still touching
// an edge before the operation) and the edge count of the star output.
//
// In both operations u > m(v) whenever the output pair is not a loop, so
// the output is already canonical and deduplication suffices.
func tpStar(r *run, star string) (int64, int64, error) {
	liveV, err := r.create("tp_m", tpSQLMin, r.tab("tp_e"))
	if err != nil {
		return 0, 0, err
	}
	liveE, err := r.create("tp_e2", star, r.tab("tp_e"), r.tab("tp_m"))
	if err != nil {
		return 0, 0, err
	}
	if err := r.drop("tp_m"); err != nil {
		return 0, 0, err
	}
	if err := r.rename("tp_e", "tp_prev"); err != nil {
		return 0, 0, err
	}
	return liveV, liveE, r.rename("tp_e2", "tp_e")
}

// tpStarChanged reports whether the last star operation changed the edge
// set, and drops the saved previous edge set. prev and next are the
// cardinalities of tp_prev and tp_e, known from the statements that wrote
// them; only when they tie does a set comparison have to decide.
func tpStarChanged(r *run, prev, next int64) (bool, error) {
	changed := prev != next
	if !changed {
		nu, err := r.count(sqlCountUnion, r.tab("tp_prev"), r.tab("tp_e"))
		if err != nil {
			return false, err
		}
		changed = nu != prev
	}
	return changed, r.drop("tp_prev")
}
