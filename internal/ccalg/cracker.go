package ccalg

import (
	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

// Cracker is the vertex-pruning algorithm of Lulli et al. ("Fast connected
// components computation in large graphs by vertex pruning", TPDS 2017),
// ported with the same direct translation the paper applies to its Spark
// implementation. Each round has two phases:
//
//   - Min selection: every vertex u computes the minimum of its closed
//     neighbourhood and proposes it as a candidate to every member of that
//     neighbourhood (including itself);
//   - Pruning: every vertex v looks at its received candidate set C(v).
//     If v is nobody's minimum (v ∉ C(v)) it is pruned from the graph and
//     attached to min C(v) in the propagation tree; in either case the
//     candidates in C(v) are re-linked to min C(v), preserving
//     connectivity among the surviving local minima.
//
// When the graph runs out of edges, the surviving vertices seed their
// components and labels propagate down the tree. The candidate re-linking
// is what inflates communication on path-shaped inputs (Table I's
// O(|V|·|E|/log|V|) bound and the Path100M failure in Table III).
func Cracker(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "cr", runCracker)
}

// Cracker's statement shapes. The working graph and the candidate table
// hold (v, w) and (v, c) rows; minima, labels and the propagation tree
// (v, r) and (parent, child) rows.
const (
	// crSQLCandidates is min selection: each edge (u, v) of $2 proposes
	// u's minimum ($3) to v, and each vertex proposes its minimum to
	// itself; the table holds (receiver, candidate) pairs.
	crSQLCandidates = `
		create table $1 as
		select distinct v, c from (
			select e.w as v, m.r as c from $2 as e, $3 as m where e.v = m.v
			union all
			select v, r from $3 as m2) as x
		distributed by (v)`
	// crSQLLive: the survivors, vertices that are somebody's minimum
	// (v ∈ C(v)).
	crSQLLive = `
		create table $1 as
		select distinct v from $2 as g where v = c
		distributed by (v)`
	// crSQLPruned attaches every non-surviving vertex of the candidate
	// minima $2 to its minimum, as tree rows (parent, child); $3 are the
	// survivors.
	crSQLPruned = `
		create table $1 as
		select vm.r as parent, vm.v as child
		from $2 as vm left join $3 as lv on vm.v = lv.v
		where lv.v is null
		distributed by (child)`
	// crSQLRelink is the next graph: every candidate of $2 re-linked to
	// its receiver's minimum ($3), re-symmetrised, loops dropped.
	crSQLRelink = `
		create table $1 as
		select distinct v, w from (
			select vm.r as v, g.c as w from $2 as g, $3 as vm where g.v = vm.v
			union all
			select g2.c, vm2.r from $2 as g2, $3 as vm2 where g2.v = vm2.v) as x
		where v != w
		distributed by (v)`
	// crSQLNextV: the vertices of the next graph $2.
	crSQLNextV = `
		create table $1 as
		select distinct v from $2 as e group by v
		distributed by (v)`
	// crSQLRoots: survivors ($2) that were not pruned (children of $3) and
	// no longer touch an edge ($4) seed their component, as tree rows
	// (v, v).
	crSQLRoots = `
		create table $1 as
		select lv.v as parent, lv.v as child
		from $2 as lv
			left join (select distinct child as v from $3 as pr) as pc on lv.v = pc.v
			left join $4 as nv on lv.v = nv.v
		where pc.v is null and nv.v is null
		distributed by (child)`
	// crSQLAppendTree appends a round's tree rows to the tree $1: the
	// pruned vertices ($2) and the roots ($3).
	crSQLAppendTree = `
		insert into $1
		select parent, child from $2 as p
		union all
		select parent, child from $3 as q`
	// crSQLTreeRoots seeds the labels at the tree's roots ($2).
	crSQLTreeRoots = `
		create table $1 as
		select child as v, parent as r from $2 as t where parent = child
		distributed by (v)`
	// crSQLPropagate pushes the labels $3 one tree ($2) level down: the
	// children of labelled parents inherit the label, united with the
	// existing labels and deduplicated (each child has one parent, so no
	// conflicts arise).
	crSQLPropagate = `
		create table $1 as
		select distinct v, r from (
			select v, r from $3 as l
			union all
			select t.child, l2.r from $2 as t, $3 as l2 where t.parent = l2.v) as x
		distributed by (v)`
	// crSQLFinal labels every input vertex ($2): isolated input vertices
	// (loop edges) never enter the working graph and label themselves.
	crSQLFinal = `
		create table $1 as
		select a.v, coalesce(l.r, a.v) as r
		from $2 as a left join $3 as l on a.v = l.v
		distributed by (v)`
)

func runCracker(r *run, input string) (string, error) {
	// Working edge set: symmetric, deduplicated, loop-free.
	liveE, err := r.create("cr_e", sqlEdges, sql.Table(input))
	if err != nil {
		return "", err
	}
	// All original vertices, for final labelling.
	if _, err := r.create("cr_allv", sqlVertices, sql.Table(input)); err != nil {
		return "", err
	}
	// Propagation tree rows (parent, child); roots appear as (v, v).
	if _, err := r.c.CreateTable(r.t("cr_tree"), engine.Schema{"parent", "child"}, 1); err != nil {
		return "", err
	}
	r.temps[r.t("cr_tree")] = struct{}{}
	// Propagation rounds follow the contraction rounds; prepare their
	// statement now so they stay parse-free.
	if err := r.prepare(crSQLPropagate); err != nil {
		return "", err
	}

	// Contraction rounds run while the graph has edges.
	if liveE > 0 {
		err := r.rounds(func() (int64, int64, bool, error) {
			liveV, nextE, err := crackerRound(r)
			return liveV, nextE, nextE == 0, err
		})
		if err != nil {
			return "", err
		}
	}

	// Propagation: seed labels at the roots, then push one tree level per
	// round until a round labels no new vertex. The rename dance keeps the
	// names stable across propagation rounds.
	labelled, err := r.create("cr_lab", crSQLTreeRoots, r.tab("cr_tree"))
	if err != nil {
		return "", err
	}
	err = r.rounds(func() (int64, int64, bool, error) {
		prev := labelled
		var err error
		if labelled, err = r.create("cr_lab2", crSQLPropagate, r.tab("cr_tree"), r.tab("cr_lab")); err != nil {
			return 0, 0, false, err
		}
		// Propagation rounds run on the edge-free tree: the labelled vertex
		// count grows level by level while the live edge set stays empty.
		return labelled, 0, labelled == prev, r.replace("cr_lab", "cr_lab2")
	})
	if err != nil {
		return "", err
	}

	_, err = r.create("cr_result", crSQLFinal, r.tab("cr_allv"), r.tab("cr_lab"))
	return "cr_result", err
}

// crackerRound performs one min-selection + pruning round, replacing cr_e
// and appending to cr_tree. It returns the surviving (unpruned) vertex
// count and the edge count of the next graph.
func crackerRound(r *run) (int64, int64, error) {
	if _, err := r.create("cr_m", sqlClosedMin, r.tab("cr_e")); err != nil {
		return 0, 0, err
	}
	if _, err := r.create("cr_g", crSQLCandidates, r.tab("cr_e"), r.tab("cr_m")); err != nil {
		return 0, 0, err
	}
	// The previous graph is no longer needed once the candidate table
	// exists (a Spark port would unpersist the parent RDD here).
	if err := r.drop("cr_m", "cr_e"); err != nil {
		return 0, 0, err
	}
	// vmin(v) = min C(v).
	if _, err := r.create("cr_vmin", sqlGroupMin, r.tab("cr_g")); err != nil {
		return 0, 0, err
	}
	liveV, err := r.create("cr_live", crSQLLive, r.tab("cr_g"))
	if err != nil {
		return 0, 0, err
	}
	if _, err := r.create("cr_prune", crSQLPruned, r.tab("cr_vmin"), r.tab("cr_live")); err != nil {
		return 0, 0, err
	}
	liveE, err := r.create("cr_e2", crSQLRelink, r.tab("cr_g"), r.tab("cr_vmin"))
	if err != nil {
		return 0, 0, err
	}
	if _, err := r.create("cr_nextv", crSQLNextV, r.tab("cr_e2")); err != nil {
		return 0, 0, err
	}
	if _, err := r.create("cr_roots", crSQLRoots,
		r.tab("cr_live"), r.tab("cr_prune"), r.tab("cr_nextv")); err != nil {
		return 0, 0, err
	}
	if _, err := r.exec(crSQLAppendTree, r.tab("cr_tree"), r.tab("cr_prune"), r.tab("cr_roots")); err != nil {
		return 0, 0, err
	}
	if err := r.drop("cr_g", "cr_vmin", "cr_live", "cr_prune", "cr_roots", "cr_nextv"); err != nil {
		return 0, 0, err
	}
	if err := r.rename("cr_e2", "cr_e"); err != nil {
		return 0, 0, err
	}
	return liveV, liveE, r.checkSpace()
}
