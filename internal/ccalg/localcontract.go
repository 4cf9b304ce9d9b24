package ccalg

import (
	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

// Local contraction's degree-threshold schedule: vertices of degree at
// most τ contract locally this round, and τ grows geometrically so every
// vertex — however high its degree — becomes contractible within
// log_lcTauGrowth(Δ) rounds.
const (
	lcInitialTau = 16
	lcTauGrowth  = 4
)

// LocalContract is the local-contractions algorithm in the style of Łącki,
// Mirrokni and Włodarczyk ("Connected components at scale via local
// contractions", arXiv:1807.10727): each round contracts the low-degree
// vertices (degree ≤ τ) into a neighbour, while high-degree hubs are
// excepted — a hub never contracts into anything, and a low vertex
// adjacent to a hub contracts into its smallest hub neighbour rather than
// chase a chain of low vertices. The exception keeps per-round work local
// (a low vertex only inspects its ≤ τ neighbours) and funnels the mass of
// skewed graphs straight into their hubs; the threshold grows by
// lcTauGrowth per round, so once τ clears the maximum degree the algorithm
// degenerates to pure minimum-contraction and finishes in O(log |V|)
// further rounds.
//
// The representative map is acyclic by construction — pointers among
// hub-free low vertices strictly decrease, a hub-adjacent low vertex
// points at a hub, and hubs are fixpoints — so the shared pointer-doubling
// step contracts whole trees per round.
func LocalContract(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "lc", runLocalContract)
}

// Local contraction's statement shapes.
const (
	// lcSQLDegree: the degree of every live vertex of E ($2). E is
	// symmetric, so the out-degree is the degree.
	lcSQLDegree = `
		create table $1 as
		select v, count(*) as deg from $2 as e group by v
		distributed by (v)`
	// lcSQLRep builds the round's representative map over E ($2) and the
	// degrees ($3) at threshold τ ($4):
	//
	//	rep(v) = v                      when deg(v) > τ (hub exception)
	//	       = min hub neighbour      when v is low but hub-adjacent
	//	       = min(N(v) ∪ {v})        otherwise (plain local contraction)
	//
	// composed as two left joins: the closed-neighbourhood minimum,
	// overridden by the hub-neighbour minimum, overridden by self for hubs.
	lcSQLRep = `
		create table $1 as
		select a.v, coalesce(hb.v, hn.h, a.r) as r
		from (select v, least(v, min(w)) as r from $2 as e group by v) as a
			left join (
				select e2.v, min(e2.w) as h
				from $2 as e2, $3 as d
				where e2.w = d.v and d.deg > $4
				group by e2.v) as hn on a.v = hn.v
			left join (select v from $3 as d2 where deg > $4) as hb on a.v = hb.v
		distributed by (v)`
)

func runLocalContract(r *run, input string) (string, error) {
	if _, err := initFrontier(r, input, "lc"); err != nil {
		return "", err
	}

	tau := int64(lcInitialTau)
	return "lc_l", r.rounds(func() (int64, int64, bool, error) {
		if _, err := r.create("lc_d", lcSQLDegree, r.tab("lc_e")); err != nil {
			return 0, 0, false, err
		}
		liveV, err := r.create("lc_p", lcSQLRep, r.tab("lc_e"), r.tab("lc_d"), sql.Int(tau))
		if err != nil {
			return 0, 0, false, err
		}
		if err := r.drop("lc_d"); err != nil {
			return 0, 0, false, err
		}
		liveE, err := contractStep(r, "lc")
		if tau < 1<<40 {
			tau *= lcTauGrowth
		}
		return liveV, liveE, liveE == 0, err
	})
}
