package ccalg

import (
	"fmt"

	"dbcc/internal/engine"
	"dbcc/internal/gf"
	"dbcc/internal/sql"
	"dbcc/internal/xrand"
)

// Method selects the vertex-order randomisation of Sec. V-C.
type Method int

// Randomisation methods.
const (
	// FiniteFields draws hᵢ(w) = Aᵢ·w + Bᵢ over GF(2^64) — the paper's
	// final refinement (Fig. 3/4, Appendix A) using the min-relabelling
	// optimisation of Sec. V-D.
	FiniteFields Method = iota
	// GFPrime is the SQL-only alternative the paper mentions: the same
	// affine map over GF(p) for a prime p = 2^64−59 exceeding every
	// vertex ID.
	GFPrime
	// Encryption draws a fresh Blowfish key per round and uses
	// rᵢ(v) = argmin eₖᵢ(w); only the key crosses the network.
	Encryption
	// RandomReals materialises a per-vertex table of round-fresh random
	// values and uses rᵢ(v) = argmin hᵢ(w) — full randomisation, at the
	// cost of distributing one random number per vertex.
	RandomReals
)

// String returns the method name used in reports.
func (m Method) String() string {
	switch m {
	case FiniteFields:
		return "finite-fields"
	case GFPrime:
		return "gf-prime"
	case Encryption:
		return "encryption"
	case RandomReals:
		return "random-reals"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Variant selects between the two implementations of Sec. V-D.
type Variant int

// Algorithm variants.
const (
	// Fast is Fig. 4 / Appendix A: per-round representative tables are
	// kept and composed small-to-large after contraction finishes.
	// Space is linear in expectation.
	Fast Variant = iota
	// Safe is Fig. 3: one full-size composition table L is folded every
	// round, giving deterministically linear space.
	Safe
)

// String returns the variant name used in reports.
func (v Variant) String() string {
	if v == Safe {
		return "fig3-safe"
	}
	return "fig4-fast"
}

// RCOptions are the Randomised Contraction knobs.
type RCOptions struct {
	Method  Method
	Variant Variant
	// NoRerandomise reuses the round-1 keys for every round (ablation A3).
	// Sec. V-B requires fresh randomness per round for the independence
	// argument; disabling it demonstrates why.
	NoRerandomise bool
	// Deterministic disables randomisation entirely (h = identity), i.e.
	// the "basic idea" of Sec. V-A choosing the minimum vertex ID of the
	// closed neighbourhood. On a sequentially numbered path this is the
	// Fig. 2(a) worst case: one vertex removed per round. Only meaningful
	// with the FiniteFields or GFPrime methods.
	Deterministic bool
}

// RandomisedContraction runs the paper's algorithm by issuing the SQL of
// Appendix A (adapted per method and variant) through the SQL layer, just
// as the paper's Python driver issues it to HAWQ.
func RandomisedContraction(c *engine.Cluster, input string, opts Options) (*Result, error) {
	return drive(c, input, opts, "rc", rcBody(opts))
}

// rcKeys holds one round's randomisation parameters.
type rcKeys struct {
	a, b int64 // affine coefficients (GF methods)
	key  int64 // cipher key / hash seed (argmin methods)
}

// drawKeys draws a round's keys the way the paper's driver does: uniform
// 64-bit integers with A ≠ 0.
func drawKeys(rng *xrand.Rand) rcKeys {
	return rcKeys{
		a:   int64(rng.NonZeroUint64()),
		b:   int64(rng.Uint64()),
		key: int64(rng.Uint64()),
	}
}

// The Appendix A statement shapes (the setup query is the shared
// sqlSymmetric), written once with $N parameters: $1 is always the CTAS
// target, table parameters carry the round-varying rc_reps<i> / renamed
// graph tables, value parameters the round keys.
const (
	rcSQLContract1 = `
		create table $1 as
		select r1.rep as v1, g.v2 as v2
		from $2 as g, $3 as r1
		where g.v1 = r1.v
		distributed by (v2)`
	rcSQLContract2 = `
		create table $1 as
		select distinct g2.v1 as v1, r2.rep as v2
		from $2 as g2, $3 as r2
		where g2.v2 = r2.v and g2.v1 != r2.rep
		distributed by (v1)`
	rcSQLMinH = `
		create table $1 as
		select v, min(h) as mh from $2 as nh group by v
		distributed by (v)`
	rcSQLArgmin = `
		create table $1 as
		select nh.v as v, min(nh.w) as rep
		from $2 as nh, $3 as mh
		where nh.v = mh.v and nh.h = mh.mh
		group by nh.v
		distributed by (v)`
)

// rcBody is the driver body for the run options' seed and RC knobs.
func rcBody(opts Options) body {
	return func(r *run, input string) (string, error) {
		return runRC(r, input, opts)
	}
}

func runRC(r *run, input string, opts Options) (string, error) {
	RegisterUDFs(r.c)
	rng := xrand.New(opts.Seed)
	method := opts.RC.Method
	variant := opts.RC.Variant

	// Setup (Appendix A): symmetrise the edge table.
	if _, err := r.create("rc_graph", sqlSymmetric, sql.Table(input)); err != nil {
		return "", err
	}

	var stack []rcKeys
	err := r.rounds(func() (int64, int64, bool, error) {
		var keys rcKeys
		switch {
		case opts.RC.Deterministic:
			keys = rcKeys{a: 1, b: 0, key: 0}
		case opts.RC.NoRerandomise && len(stack) > 0:
			keys = stack[0]
		default:
			keys = drawKeys(rng)
		}
		// Representative tables are numbered by contraction step, not by
		// the run's round number, which the composition must not depend on.
		stack = append(stack, keys)
		step := len(stack)

		reps := fmt.Sprintf("rc_reps%d", step)
		var liveV int64
		var err error
		if method == FiniteFields || method == GFPrime {
			liveV, err = rcRepsAffine(r, method, reps, keys)
		} else {
			liveV, err = rcRepsArgmin(r, method, reps, keys)
		}
		if err != nil {
			return 0, 0, false, err
		}

		// Contraction, split into the two queries of Appendix A so the
		// write-volume accounting matches the measured implementation.
		if _, err := r.create("rc_graph2", rcSQLContract1,
			r.tab("rc_graph"), r.tab(reps)); err != nil {
			return 0, 0, false, err
		}
		if err := r.drop("rc_graph"); err != nil {
			return 0, 0, false, err
		}
		size, err := r.create("rc_graph3", rcSQLContract2,
			r.tab("rc_graph2"), r.tab(reps))
		if err != nil {
			return 0, 0, false, err
		}
		if err := r.drop("rc_graph2"); err != nil {
			return 0, 0, false, err
		}
		if err := r.rename("rc_graph3", "rc_graph"); err != nil {
			return 0, 0, false, err
		}

		// The Safe (Fig. 3) variant folds the round's representative table
		// into the running composition L immediately and drops it.
		if variant == Safe {
			if err := rcFoldSafe(r, method, step, keys); err != nil {
				return 0, 0, false, err
			}
		}
		return liveV, size, size == 0, nil
	})
	if err != nil {
		return "", err
	}
	if err := r.drop("rc_graph"); err != nil {
		return "", err
	}

	// Composition.
	if variant == Safe {
		return "rc_l", nil
	}
	return "rc_reps1", rcComposeFast(r, method, stack)
}

// rcFn names the affine-map UDF of a GF method.
func rcFn(method Method) string {
	if method == GFPrime {
		return "axbp"
	}
	return "axplusb"
}

// rcRepsAffine computes the round's representatives with the
// min-relabelling optimisation (Sec. V-D): representatives are the
// h-transformed IDs, so a plain min aggregate suffices. It returns the
// representative-table cardinality — the round's live vertex count.
func rcRepsAffine(r *run, method Method, reps string, k rcKeys) (int64, error) {
	src := fmt.Sprintf(`
		create table $1 as
		select v1 v, least(%[1]s($2, v1, $3), min(%[1]s($2, v2, $3))) rep
		from $4 as g
		group by v1
		distributed by (v)`, rcFn(method))
	return r.create(reps, src, sql.Int(k.a), sql.Int(k.b), r.tab("rc_graph"))
}

// rcRepsArgmin computes the round's representatives as
// rᵢ(v) = argmin_{w∈N[v]} h(w), the form the paper gives for the random
// reals and encryption methods (Sec. V-C). Representatives remain genuine
// vertex IDs. Ties on h are broken by the smaller vertex ID, which is
// still a valid representative choice (any r(v) ∈ N[v] preserves
// connectivity). It returns the representative-table cardinality — the
// round's live vertex count.
func rcRepsArgmin(r *run, method Method, reps string, k rcKeys) (int64, error) {
	h := "hrand"
	if method == Encryption {
		h = "enc"
	}
	// Closed-neighbourhood h values: one row (v, w, h(w)) per neighbour,
	// plus the self row (v, v, h(v)).
	nhSrc := fmt.Sprintf(`
		create table $1 as
		select g.v1 as v, g.v2 as w, %[1]s($2, g.v2) as h from $3 as g
		union all
		select g2.v1 as v, g2.v1 as w, %[1]s($2, g2.v1) as h from $3 as g2 group by g2.v1
		distributed by (v)`, h)
	if _, err := r.create("rc_nh", nhSrc, sql.Int(k.key), r.tab("rc_graph")); err != nil {
		return 0, err
	}
	if _, err := r.create("rc_minh", rcSQLMinH, r.tab("rc_nh")); err != nil {
		return 0, err
	}
	n, err := r.create(reps, rcSQLArgmin, r.tab("rc_nh"), r.tab("rc_minh"))
	if err != nil {
		return 0, err
	}
	return n, r.drop("rc_nh", "rc_minh")
}

// rcRelabelSQL renders the Fig. 3 / Fig. 4 composition shape: relabel is
// the fallback expression for labels that dropped out of the joined
// representative table.
func rcRelabelSQL(left, right, relabel string) string {
	return fmt.Sprintf(`
		create table $1 as
		select %[1]s.v as v, coalesce(%[2]s.rep, %[3]s) as rep
		from $2 as %[1]s left outer join $3 as %[2]s on (%[1]s.rep = %[2]s.v)
		distributed by (v)`, left, right, relabel)
}

// rcFoldSafe folds the representative table of contraction step step into
// the running composition table rc_l (Fig. 3's else branch) and drops it,
// keeping the space bound deterministic.
func rcFoldSafe(r *run, method Method, step int, k rcKeys) error {
	reps := fmt.Sprintf("rc_reps%d", step)
	if step == 1 {
		return r.rename(reps, "rc_l")
	}
	// Vertices whose label dropped out of this round's computation must be
	// relabelled through hᵢ for the GF methods (their labels live in the
	// previous round's ID space); the argmin methods keep real IDs.
	var src string
	var args []sql.Arg
	switch method {
	case FiniteFields, GFPrime:
		src = rcRelabelSQL("l", "rr", rcFn(method)+"($4, l.rep, $5)")
		args = []sql.Arg{r.tab("rc_l"), r.tab(reps), sql.Int(k.a), sql.Int(k.b)}
	default:
		src = rcRelabelSQL("l", "rr", "l.rep")
		args = []sql.Arg{r.tab("rc_l"), r.tab(reps)}
	}
	if _, err := r.create("rc_tmp", src, args...); err != nil {
		return err
	}
	if err := r.drop("rc_l", reps); err != nil {
		return err
	}
	return r.rename("rc_tmp", "rc_l")
}

// rcAxB is the affine map of a GF method, a·x+b, computed by the function
// its UDF calls (rcFn), so coordinator arithmetic and SQL agree bit for bit.
func rcAxB(method Method, a, x, b int64) int64 {
	if method == GFPrime {
		return int64(gf.AxBP(uint64(a), uint64(x), uint64(b)))
	}
	return int64(gf.AxB(uint64(a), uint64(x), uint64(b)))
}

// rcComposeFast composes the stacked representative tables back to front
// (Fig. 4's second loop / Appendix A) into rc_reps1. For the GF methods the
// affine coefficients of the composed map are accumulated on the
// coordinator: two field operations on int64s read no table, so they issue
// no statement.
func rcComposeFast(r *run, method Method, stack []rcKeys) error {
	gfMethod := method == FiniteFields || method == GFPrime
	accA, accB := int64(1), int64(0)
	for i := len(stack) - 1; i >= 1; i-- {
		var src string
		var args []sql.Arg
		r1 := fmt.Sprintf("rc_reps%d", i)
		r2 := fmt.Sprintf("rc_reps%d", i+1)
		if gfMethod {
			k := stack[i]
			accA, accB = rcAxB(method, accA, k.a, 0), rcAxB(method, accA, k.b, accB)
			src = rcRelabelSQL("r1", "r2", rcFn(method)+"($4, r1.rep, $5)")
			args = []sql.Arg{r.tab(r1), r.tab(r2), sql.Int(accA), sql.Int(accB)}
		} else {
			src = rcRelabelSQL("r1", "r2", "r1.rep")
			args = []sql.Arg{r.tab(r1), r.tab(r2)}
		}
		if _, err := r.create("rc_tmp", src, args...); err != nil {
			return err
		}
		if err := r.drop(r1, r2); err != nil {
			return err
		}
		if err := r.rename("rc_tmp", r1); err != nil {
			return err
		}
	}
	return nil
}
