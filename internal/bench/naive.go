package bench

import (
	"fmt"
	"io"
	"math/bits"

	"dbcc/internal/ccalg"
	"dbcc/internal/datagen"
	"dbcc/internal/graph"
	"dbcc/internal/xrand"
)

// NaiveExperiment reproduces the Sec. IV argument about the two simple
// solution attempts:
//
//   - the Breadth First Search strategy needs a number of rounds bounded
//     only by the graph diameter (n−1 on a sequentially numbered path);
//   - iterated squaring (G, G², G⁴, …) reaches radius 2^k neighbourhoods
//     in k steps but blows the edge set up towards the complete graph —
//     a quadratic data explosion.
//
// Both are measured here on paths, next to Randomised Contraction on the
// same inputs.
func NaiveExperiment(w io.Writer, cfg Config) {
	fmt.Fprintln(w, "ABLATION A6 — THE SEC. IV DEAD ENDS ON SEQUENTIAL PATHS")
	fmt.Fprintf(w, "%-8s %12s %12s %16s %12s\n",
		"n", "BFS rounds", "RC rounds", "G^2k max edges", "input edges")
	bfsInfo, _ := ccalg.ByName("bfs")
	rcInfo, _ := ccalg.ByName("rc")
	for _, n := range []int{64, 128, 256, 512} {
		g := datagen.Path(n)
		bfsRes, _, err := runOnce(g, bfsInfo, cfg, ccalg.Options{Seed: cfg.Seed})
		if err != nil {
			fmt.Fprintf(w, "%-8d BFS error: %v\n", n, err)
			continue
		}
		rcRes, _, err := runOnce(g, rcInfo, cfg, ccalg.Options{Seed: cfg.Seed})
		if err != nil {
			fmt.Fprintf(w, "%-8d RC error: %v\n", n, err)
			continue
		}
		maxEdges := squaringMaxEdges(g)
		fmt.Fprintf(w, "%-8d %12d %12d %16d %12d\n",
			n, bfsRes.Rounds, rcRes.Rounds, maxEdges, g.NumEdges())
	}
	fmt.Fprintln(w, "(BFS rounds grow linearly; squaring's intermediate edge count grows")
	fmt.Fprintln(w, " quadratically towards the complete graph; RC stays logarithmic)")
}

// squaringMaxEdges runs the Sec. IV iterated-squaring idea in-memory until
// the neighbourhoods stop growing and returns the largest intermediate
// undirected edge count — the quadratic blow-up the paper rules the
// approach out for. Adjacency is one bitset row per vertex: G²'s row of x
// is x's row OR-ed with the rows of x's neighbours, minus x itself.
func squaringMaxEdges(g *graph.Graph) int {
	idx := make(map[int64]int)
	for _, e := range g.Edges {
		for _, v := range [2]int64{e.V, e.W} {
			if _, ok := idx[v]; !ok {
				idx[v] = len(idx)
			}
		}
	}
	n := len(idx)
	words := (n + 63) / 64
	newRows := func() [][]uint64 {
		flat := make([]uint64, n*words)
		rows := make([][]uint64, n)
		for i := range rows {
			rows[i] = flat[i*words : (i+1)*words]
		}
		return rows
	}
	// count returns the undirected edge count of a symmetric, loop-free
	// adjacency.
	count := func(rows [][]uint64) int {
		total := 0
		for _, row := range rows {
			for _, w := range row {
				total += bits.OnesCount64(w)
			}
		}
		return total / 2
	}
	rows := newRows()
	for _, e := range g.Edges {
		a, b := idx[e.V], idx[e.W]
		if a == b {
			continue
		}
		rows[a][b/64] |= 1 << (b % 64)
		rows[b][a/64] |= 1 << (a % 64)
	}
	edges := count(rows)
	maxEdges := edges
	for {
		next := newRows()
		for x, row := range rows {
			copy(next[x], row)
			for wi, w := range row {
				for ; w != 0; w &= w - 1 {
					y := wi*64 + bits.TrailingZeros64(w)
					for k, yw := range rows[y] {
						next[x][k] |= yw
					}
				}
			}
			next[x][x/64] &^= 1 << (x % 64)
		}
		nextEdges := count(next)
		// G ⊆ G², so an unchanged count means an unchanged edge set.
		if nextEdges == edges {
			return maxEdges
		}
		rows, edges = next, nextEdges
		maxEdges = max(maxEdges, edges)
	}
}

// AppendixBExperiment verifies the theory of Appendix B by Monte-Carlo
// census: over uniformly random orderings of random directed graphs, the
// expected number of type-1 vertices (representative of exactly one
// vertex) never exceeds the expected number of type-0 vertices (Lemma 1),
// and the expected number of representatives stays ≤ (2/3)n (Theorem 2) —
// with the directed 3-cycle attaining the bound exactly.
func AppendixBExperiment(w io.Writer, trials int, seed uint64) {
	fmt.Fprintln(w, "EXPERIMENT E8b — APPENDIX B TYPE CENSUS ON DIRECTED GRAPHS")
	fmt.Fprintf(w, "%-24s %8s %8s %8s %10s\n", "graph", "E[type0]", "E[type1]", "E[2+]", "E[reps]/n")
	rng := xrand.New(seed)
	graphs := []struct {
		name string
		gen  func(r *xrand.Rand) [][]int64 // adjacency: out-neighbours per vertex
	}{
		{"directed-3-cycle", func(*xrand.Rand) [][]int64 {
			return [][]int64{{1}, {2}, {0}}
		}},
		{"random-out-1 (n=30)", func(r *xrand.Rand) [][]int64 {
			out := make([][]int64, 30)
			for v := range out {
				w := int64(r.Uint64n(30))
				for w == int64(v) {
					w = int64(r.Uint64n(30))
				}
				out[v] = []int64{w}
			}
			return out
		}},
		{"random-out-3 (n=30)", func(r *xrand.Rand) [][]int64 {
			out := make([][]int64, 30)
			for v := range out {
				seen := map[int64]bool{int64(v): true}
				for len(out[v]) < 3 {
					w := int64(r.Uint64n(30))
					if !seen[w] {
						seen[w] = true
						out[v] = append(out[v], w)
					}
				}
			}
			return out
		}},
		{"bidirected-path (n=20)", func(*xrand.Rand) [][]int64 {
			out := make([][]int64, 20)
			for v := 0; v < 20; v++ {
				if v > 0 {
					out[v] = append(out[v], int64(v-1))
				}
				if v < 19 {
					out[v] = append(out[v], int64(v+1))
				}
			}
			return out
		}},
	}
	for _, spec := range graphs {
		var t0, t1, t2, reps float64
		n := 0
		for trial := 0; trial < trials; trial++ {
			out := spec.gen(rng)
			n = len(out)
			a, b, c, r := typeCensus(out, rng)
			t0 += float64(a)
			t1 += float64(b)
			t2 += float64(c)
			reps += float64(r)
		}
		f := float64(trials)
		fmt.Fprintf(w, "%-24s %8.2f %8.2f %8.2f %10.4f\n",
			spec.name, t0/f, t1/f, t2/f, reps/f/float64(n))
	}
	fmt.Fprintln(w, "(Lemma 1: E[type1] ≤ E[type0]; Thm 2: E[reps]/n ≤ 2/3, tight on the 3-cycle)")
}

// typeCensus draws one uniformly random labelling, assigns every vertex
// the representative argmin_{w∈N⁺[v]} L(w), and counts vertices by how
// many vertices they represent.
func typeCensus(out [][]int64, rng *xrand.Rand) (type0, type1, type2plus, reps int) {
	n := len(out)
	label := rng.Perm(n)
	counts := make([]int, n)
	for v := 0; v < n; v++ {
		best := v
		for _, w := range out[v] {
			if label[w] < label[best] {
				best = int(w)
			}
		}
		counts[best]++
	}
	for _, c := range counts {
		switch {
		case c == 0:
			type0++
		case c == 1:
			type1++
		default:
			type2plus++
		}
	}
	return type0, type1, type2plus, n - type0
}
