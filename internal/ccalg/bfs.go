package ccalg

import (
	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

// BFS is the naive "Breadth First Search" strategy of Sec. IV, which is how
// Apache MADlib computes connected components: every vertex starts with the
// minimum ID in its closed neighbourhood as its representative, and each
// round improves the representative to the minimum representative in the
// closed neighbourhood, until a fixpoint. After n rounds each vertex holds
// the minimum ID within distance n, so the round count is bounded by the
// diameter — the behaviour that makes it unsuitable for Big Data (a
// sequentially numbered path of n vertices takes n−1 rounds).
func BFS(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "bfs", runBFS)
}

// bfsSQLStep is one propagation round, shared with the adaptive
// planner's diameter probe: every vertex's label ($2, (v, r) rows)
// improves to the minimum label in its closed neighbourhood over the
// symmetric edge table $3. Vertices without neighbours keep their label,
// because least ignores the NULL of the left join.
const bfsSQLStep = `
	create table $1 as
	select l.v, least(l.r, n.m) as r
	from $2 as l left join (
		select e.v, min(nl.r) as m
		from $3 as e (v, w), $2 as nl
		where e.w = nl.v
		group by e.v) as n on l.v = n.v
	distributed by (v)`

func runBFS(r *run, input string) (string, error) {
	// Symmetrised edge table, distributed by source. BFS never shrinks the
	// edge set, so this count is the constant live-edge figure of the round
	// log — the reason its per-round cost does not decay.
	liveE, err := r.create("bfs_e", sqlSymmetric, sql.Table(input))
	if err != nil {
		return "", err
	}
	// Initial labels: minimum of the closed neighbourhood.
	if _, err := r.create("bfs_l", sqlClosedMin, r.tab("bfs_e")); err != nil {
		return "", err
	}

	// The rename dance keeps the table names stable (bfs_l2 is always
	// created fresh and renamed to bfs_l), so the same statements run
	// every round.
	return "bfs_l", r.rounds(func() (int64, int64, bool, error) {
		liveV, err := r.create("bfs_l2", bfsSQLStep, r.tab("bfs_l"), r.tab("bfs_e"))
		if err != nil {
			return 0, 0, false, err
		}
		// Converged when no vertex changed its representative.
		changed, err := r.count(sqlCountChanged, r.tab("bfs_l"), r.tab("bfs_l2"))
		if err != nil {
			return 0, 0, false, err
		}
		return liveV, liveE, changed == 0, r.replace("bfs_l", "bfs_l2")
	})
}
