package ccalg

import (
	"fmt"

	"dbcc/internal/sql"
)

// Shared machinery of the two frontier drivers (LocalContract and
// LogDiameter). Both algorithms run the same contraction skeleton: a live
// edge set E (symmetric, deduplicated, loops dropped), a label table L
// mapping every original vertex to its current representative, and a
// per-round representative table P over the live vertices. A round builds
// P by its own rule (min of the closed neighbourhood for LogDiameter;
// degree-thresholded with hub exceptions for LocalContract), jumps P to a
// pointer fixpoint, rewrites E through P and folds P into L. The drivers
// differ only in how P is chosen and in LogDiameter's graph-exponentiation
// step, so everything else lives here.
//
// The statements below run every round through the rename dance
// (<p>_e2 is always created fresh and renamed to <p>_e, and so on), with
// E holding (v, w) rows and P and L (v, r) rows.
const (
	// frontierSQLJump is one pointer-doubling step over P ($2),
	// p2(v) = p(p(v)). P is total over the live vertices and closed under
	// itself (every representative is a live vertex), so the inner join
	// loses no rows.
	frontierSQLJump = `
		create table $1 as
		select a.v, b.r from $2 as a, $2 as b where a.r = b.v
		distributed by (v)`
	// frontierSQLContract rewrites both endpoints of every edge of E ($2)
	// through the fixpointed P ($3), drops the loops contraction created
	// and deduplicates. E holds both orientations, so the output is
	// symmetric by symmetry of the input.
	frontierSQLContract = `
		create table $1 as
		select distinct h.v, p2.r as w
		from (select p.r as v, e.w from $2 as e, $3 as p where e.v = p.v) as h, $3 as p2
		where h.w = p2.v and h.v != p2.r
		distributed by (v)`
	// frontierSQLFold folds P ($3) into the original-vertex labels L ($2):
	// representatives contracted away in earlier rounds are absent from P,
	// so a left join keeps their final labels.
	frontierSQLFold = `
		create table $1 as
		select l.v, coalesce(p.r, l.r) as r
		from $2 as l left join $3 as p on l.r = p.v
		distributed by (v)`
)

// frontierSQLLabels is the identity labelling over every input vertex,
// loop-only vertices included.
var frontierSQLLabels = `
	create table $1 as
	select v, v as r from ` + symmetric("$2") + ` as s group by v
	distributed by (v)`

// initFrontier materialises the run's starting state: <prefix>_l as the
// identity labelling and <prefix>_e as the live edge set. It returns the
// live edge count (both orientations, matching the LiveEdges convention
// of the BFS round log).
func initFrontier(r *run, input, prefix string) (int64, error) {
	if _, err := r.create(prefix+"_l", frontierSQLLabels, sql.Table(input)); err != nil {
		return 0, err
	}
	return r.create(prefix+"_e", sqlEdges, sql.Table(input))
}

// contractStep finishes a round whose representative table <prefix>_p has
// just been created: it jumps P to a pointer fixpoint (the drivers
// guarantee P is acyclic, so the doubling terminates in logarithmically
// many steps), contracts the edge set through it, folds it into the
// labels, and returns the surviving live edge count. The round's live
// vertices are P's rows, as its CREATE TABLE AS reported them: the
// vertices entering the round.
func contractStep(r *run, prefix string) (int64, error) {
	e, p, p2, l := prefix+"_e", prefix+"_p", prefix+"_p2", prefix+"_l"
	for i := 0; ; i++ {
		if i > maxRounds {
			return 0, fmt.Errorf("ccalg: %s pointer jumping exceeded %d steps", prefix, maxRounds)
		}
		if _, err := r.create(p2, frontierSQLJump, r.tab(p)); err != nil {
			return 0, err
		}
		changed, err := r.count(sqlCountChanged, r.tab(p), r.tab(p2))
		if err != nil {
			return 0, err
		}
		if err := r.replace(p, p2); err != nil {
			return 0, err
		}
		if changed == 0 {
			break
		}
	}
	liveE, err := r.create(e+"2", frontierSQLContract, r.tab(e), r.tab(p))
	if err != nil {
		return 0, err
	}
	if _, err := r.create(l+"2", frontierSQLFold, r.tab(l), r.tab(p)); err != nil {
		return 0, err
	}
	if err := r.drop(e, l, p); err != nil {
		return 0, err
	}
	if err := r.rename(e+"2", e); err != nil {
		return 0, err
	}
	if err := r.rename(l+"2", l); err != nil {
		return 0, err
	}
	return liveE, nil
}
