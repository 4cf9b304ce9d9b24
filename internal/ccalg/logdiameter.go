package ccalg

import "dbcc/internal/engine"

// ldExpandFactor caps the graph-exponentiation step: a round keeps its
// squared edge set only when it is at most this multiple of the current
// one. Andoni et al. spend the same ~|E|^(1+ε) space budget per round;
// here the cap bounds what one CREATE TABLE AS may charge to the memory
// accountant, and a round whose square would blow past it falls back to
// plain label contraction (still O(log |V|) rounds in the worst case).
const ldExpandFactor = 4

// ldProbeFactor guards the exact pre-count itself. Counting the squared
// edge set streams every raw two-hop candidate pair through the engine —
// Σ_v deg(v)² rows — which on a hub graph is quadratic in the hub degree
// even though the deduplicated result would be rejected anyway. The raw
// pair total (computable in one |E|-row join, no multiplication needed:
// Σ_v deg(v)² = Σ_{(u,v)∈E} deg(v)) must stay within this multiple of the
// live edges before the exact count is attempted at all. Since dedup only
// shrinks, a raw total within the probe factor bounds the counting work;
// a raw total beyond it skips the square outright, trading rounds (never
// correctness) on overlap-heavy graphs.
const ldProbeFactor = 16

// LogDiameter is the log-diameter-rounds algorithm in the style of Andoni,
// Song, Stein, Wang and Zhong ("Parallel graph connectivity in log
// diameter rounds", FOCS 2018, arXiv:1805.03055): rounds alternate graph
// exponentiation — adding every two-hop edge, which squares the reachable
// radius — with label contraction, so the effective diameter drops
// doubly-fast and the round count tracks O(log D) on bounded-expansion
// inputs instead of O(diameter) (BFS) or O(log |V|) (min-contraction).
//
// The contraction half maps every live vertex to the minimum of its closed
// neighbourhood and pointer-doubles that map to a fixpoint inside the
// round, so each outer round contracts whole rooted trees, not single
// edges. The exponentiation half is budget-capped by ldExpandFactor: the
// paper's ε-expansion is charged to the engine's memory accountant via the
// materialised edge table, and a square that would exceed the cap is
// skipped rather than materialised.
func LogDiameter(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "ld", runLogDiameter)
}

// ldPairBound is the raw two-hop candidate total Σ_v deg(v)² over the
// edge table $1, phrased without a multiply operator as the sum of deg(v)
// over the edge rows (u, v): each edge joined with the degree of its head.
const ldPairBound = `
	select sum(d.deg) as pairs
	from $1 as e, (select v, count(*) as deg from $1 as e2 group by v) as d
	where e.w = d.v`

// ldSquared returns graph exponentiation over the edge table bound to p as
// a derived table: the current edges unioned with every two-hop edge,
// deduplicated, loops dropped.
func ldSquared(p string) string {
	return `(select distinct v, w from (
		select v, w from ` + p + ` as e
		union all
		select a.v, b.w from ` + p + ` as a, ` + p + ` as b where a.w = b.v) as x
		where v != w)`
}

// The exponentiation's exact pre-count and its materialisation.
var (
	ldCountSquare = `select count(*) as n from ` + ldSquared("$1") + ` as sq`
	ldSQLSquare   = `create table $1 as select v, w from ` + ldSquared("$2") + ` as sq distributed by (v)`
)

func runLogDiameter(r *run, input string) (string, error) {
	liveE, err := initFrontier(r, input, "ld")
	if err != nil {
		return "", err
	}
	// A round squares only when the expansion budget allows, so the first
	// square may come after round one; prepare its statements now so every
	// later round stays parse-free.
	if err := r.prepare(ldCountSquare, ldSQLSquare); err != nil {
		return "", err
	}

	return "ld_l", r.rounds(func() (int64, int64, bool, error) {
		// Exponentiation, kept only within the per-round expansion budget.
		// Two tiers: the raw-pair bound decides whether the exact count is
		// affordable, the exact count decides whether the square is kept.
		// Both stream through the engine without materialising, so a
		// rejected square never touches the space accountant.
		if liveE > 0 {
			raw, err := r.count(ldPairBound, r.tab("ld_e"))
			if err != nil {
				return 0, 0, false, err
			}
			sq := int64(-1)
			if raw <= ldProbeFactor*liveE {
				if sq, err = r.count(ldCountSquare, r.tab("ld_e")); err != nil {
					return 0, 0, false, err
				}
			}
			if sq >= 0 && sq <= ldExpandFactor*liveE {
				if liveE, err = r.create("ld_esq", ldSQLSquare, r.tab("ld_e")); err != nil {
					return 0, 0, false, err
				}
				if err := r.replace("ld_e", "ld_esq"); err != nil {
					return 0, 0, false, err
				}
			}
		}
		// Label contraction: every live vertex points at the minimum of its
		// closed neighbourhood — acyclic (pointers strictly decrease), so
		// the pointer doubling of contractStep terminates.
		liveV, err := r.create("ld_p", sqlClosedMin, r.tab("ld_e"))
		if err != nil {
			return 0, 0, false, err
		}
		liveE, err = contractStep(r, "ld")
		return liveV, liveE, liveE == 0, err
	})
}
