package ccalg

import (
	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

// HashToMin is the algorithm of Rastogi et al. ("Finding connected
// components in Map-Reduce in logarithmic rounds", ICDE 2013), which the
// paper reports as the best practical MapReduce algorithm of its
// generation, ported to the database with the one-to-one translation the
// paper describes: "a 'map' using key-value messages was converted to the
// creation of a temporary database table distributed by the key, and the
// subsequent 'reduce' was implemented as an aggregate function applied on
// that table". Accordingly each round materialises the map phase's raw
// message table — every vertex sends its whole cluster C(v) to the
// minimum member and the minimum to every member — before the reduce
// phase deduplicates it into the next cluster state.
//
// Rounds are O(log |V|) but the cluster state is O(|V|²) in the worst
// case — the reason Hash-to-Min exhausts storage on the larger and the
// path-shaped datasets of Table III (reproduced here through the
// live-space budget).
func HashToMin(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "hm", runHashToMin)
}

// Hash-to-Min's statement shapes. Cluster tables hold (v, u) rows, u ∈ C(v).
const (
	// hmSQLMap is the map phase: every vertex sends its cluster C(v) ($2)
	// to its minimum m(v) ($3), (m, u), and the minimum to every member,
	// (u, m). The raw message table is materialised before the reduce, as
	// in the paper's MapReduce-to-SQL port.
	hmSQLMap = `
		create table $1 as
		select m.r as v, c.u from $2 as c, $3 as m where c.v = m.v
		union all
		select c2.u, m2.r from $2 as c2, $3 as m2 where c2.v = m2.v
		distributed by (v)`
	// hmSQLReduce deduplicates the messages $2 into the next cluster state.
	hmSQLReduce = `
		create table $1 as
		select distinct v, u from $2 as msg
		distributed by (v)`
)

// hmSQLInit is the initial map output, C(v) = N[v]: both edge
// orientations plus a self row per vertex.
var hmSQLInit = `
	create table $1 as
	select v, w as u from ` + symmetric("$2") + ` as s
	union all
	select v, v from ` + symmetric("$2") + ` as s2 group by v
	distributed by (v)`

func runHashToMin(r *run, input string) (string, error) {
	// The raw map output is materialised first, MapReduce style, then
	// reduced to the deduplicated state.
	if _, err := r.create("hm_map", hmSQLInit, sql.Table(input)); err != nil {
		return "", err
	}
	n1, err := r.create("hm_c", hmSQLReduce, r.tab("hm_map"))
	if err != nil {
		return "", err
	}
	if err := r.drop("hm_map"); err != nil {
		return "", err
	}
	// The set comparison runs only in rounds whose cardinalities tie;
	// prepare it now so whichever round first needs it stays parse-free.
	if err := r.prepare(sqlCountUnion); err != nil {
		return "", err
	}

	// The rename dance keeps the hm_c / hm_m / hm_map names stable, so the
	// same statements run every round; n1 is hm_c's cardinality, as the
	// reduce that wrote it reported.
	err = r.rounds(func() (int64, int64, bool, error) {
		// m(v) = min C(v). Its cardinality is the vertex count.
		liveV, err := r.create("hm_m", sqlGroupMin, r.tab("hm_c"))
		if err != nil {
			return 0, 0, false, err
		}
		if _, err := r.create("hm_map", hmSQLMap, r.tab("hm_c"), r.tab("hm_m")); err != nil {
			return 0, 0, false, err
		}
		n2, err := r.create("hm_c2", hmSQLReduce, r.tab("hm_map"))
		if err != nil {
			return 0, 0, false, err
		}
		if err := r.drop("hm_map", "hm_m"); err != nil {
			return 0, 0, false, err
		}
		// Converged when the cluster table is unchanged (a fixpoint of the
		// update). Set equality: equal cardinalities and the distinct union
		// no larger than either side.
		same := false
		if n1 == n2 {
			nu, err := r.count(sqlCountUnion, r.tab("hm_c"), r.tab("hm_c2"))
			if err != nil {
				return 0, 0, false, err
			}
			same = nu == n1
		}
		// The live state for Hash-to-Min is the cluster table — its
		// quadratic growth (not shrinkage) is what the round log exposes.
		n1 = n2
		return liveV, n2, same, r.replace("hm_c", "hm_c2")
	})
	if err != nil {
		return "", err
	}

	// At the fixpoint every vertex's cluster contains its component
	// minimum, so the label is min C(v).
	_, err = r.create("hm_result", sqlGroupMin, r.tab("hm_c"))
	return "hm_result", err
}
