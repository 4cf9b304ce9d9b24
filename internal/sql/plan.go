package sql

import (
	"fmt"
	"strings"

	"dbcc/internal/engine"
)

// scopeCol is one visible column during name resolution: the alias of the
// relation it came from and its column name, mapped to a position in the
// current intermediate row.
type scopeCol struct {
	qual string
	name string
}

// scope is the ordered set of columns visible to expressions.
type scope []scopeCol

// resolve finds the position of a column reference, enforcing SQL's
// ambiguity rules for unqualified names.
func (s scope) resolve(id *Ident) (int, error) {
	found := -1
	for i, c := range s {
		if id.Qual != "" && c.qual != id.Qual {
			continue
		}
		if c.name != id.Name {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: column reference %q is ambiguous", identString(id))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: column %q does not exist", identString(id))
	}
	return found, nil
}

func identString(id *Ident) string {
	if id.Qual != "" {
		return id.Qual + "." + id.Name
	}
	return id.Name
}

// isAggName reports whether a call is one of the supported aggregates.
func isAggName(name string) bool {
	switch name {
	case "min", "max", "count", "sum":
		return true
	}
	return false
}

// Resolver maps a table name as written in SQL to its catalog name. It is
// how isolated sessions rewrite references to their namespaced temporary
// tables; a nil Resolver is the identity.
type Resolver func(name string) string

// tableDep records one fixed (non-parameter) table a plan reads: the name
// as written, the physical table it resolved to and the schema it was
// planned against. The plan cache re-checks name resolution and schema
// before reusing a cached plan, so DDL that slips past eager invalidation
// (e.g. namespace shadowing) still can never execute a stale plan.
type tableDep struct {
	logical string
	phys    string
	schema  engine.Schema
}

// planParams carries prepared-statement planning state: the physical
// tables bound to $N table parameters this execute (for schema lookup),
// whether parameterised scans should be emitted under placeholder names
// (template mode), and the dependency record the plan cache stores.
type planParams struct {
	tables       map[int]string // $N -> physical table providing the schema
	placeholders bool           // emit paramScanName(N) instead of the physical name
	deps         []tableDep
	paramSchemas map[int]engine.Schema // schema each table param was planned against
}

// paramScanName is the placeholder scan name templates use for table
// parameter $N; the NUL prefix cannot collide with a real table name.
func paramScanName(n int) string { return fmt.Sprintf("\x00p%d", n) }

// PlanSelect compiles a SELECT statement to an engine plan plus its output
// column names.
func PlanSelect(c *engine.Cluster, sel *SelectStmt) (engine.Plan, engine.Schema, error) {
	return PlanSelectResolved(c, sel, nil)
}

// PlanSelectResolved is PlanSelect with table references passed through
// resolve before catalog lookup. Column qualifiers keep the names written
// in the query ("rc_graph.v1" still resolves even when rc_graph is stored
// under a session-private name).
func PlanSelectResolved(c *engine.Cluster, sel *SelectStmt, resolve Resolver) (engine.Plan, engine.Schema, error) {
	return planSelectParams(c, sel, resolve, nil)
}

// planSelectParams is the parameter-aware planner entry point; pp may be
// nil for statements without table parameters.
func planSelectParams(c *engine.Cluster, sel *SelectStmt, resolve Resolver, pp *planParams) (engine.Plan, engine.Schema, error) {
	if pp == nil {
		pp = &planParams{}
	}
	plan, names, err := planOneSelect(c, sel, resolve, pp)
	if err != nil {
		return nil, nil, err
	}
	last := sel
	for u := sel.UnionAll; u != nil; u = u.UnionAll {
		last = u
		p2, n2, err := planOneSelect(c, u, resolve, pp)
		if err != nil {
			return nil, nil, err
		}
		if len(n2) != len(names) {
			return nil, nil, fmt.Errorf("sql: UNION ALL branches have different arity (%d vs %d)", len(names), len(n2))
		}
		plan = engine.UnionAll(plan, p2)
	}
	// ORDER BY / LIMIT textually trail the last block but apply to the
	// whole statement, as in standard SQL.
	if len(last.OrderBy) > 0 || last.Limit >= 0 {
		keys := make([]engine.SortKey, len(last.OrderBy))
		for i, o := range last.OrderBy {
			idx := names.ColIndex(o.Col)
			if idx < 0 {
				return nil, nil, fmt.Errorf("sql: ORDER BY column %q is not in the select list %v", o.Col, names)
			}
			keys[i] = engine.SortKey{Col: idx, Desc: o.Desc}
		}
		plan = engine.Sort(plan, keys, last.Limit)
	}
	return plan, names, nil
}

// planOneSelect compiles a single SELECT block (ignoring its UnionAll tail).
func planOneSelect(c *engine.Cluster, sel *SelectStmt, resolve Resolver, pp *planParams) (engine.Plan, engine.Schema, error) {
	plan, sc, err := planFrom(c, sel, resolve, pp)
	if err != nil {
		return nil, nil, err
	}
	// planFrom already consumed equi-join conjuncts of WHERE; the residual
	// predicate (if any) was attached there. What remains here is GROUP BY
	// and the select list.
	hasAgg := false
	for _, item := range sel.Items {
		if containsAgg(item.Expr) {
			hasAgg = true
			break
		}
	}
	var outPlan engine.Plan
	var names engine.Schema
	if len(sel.GroupBy) > 0 || hasAgg {
		outPlan, names, err = planAggregate(c, sel, plan, sc)
	} else {
		outPlan, names, err = planProjection(c, sel, plan, sc)
	}
	if err != nil {
		return nil, nil, err
	}
	if sel.Distinct {
		outPlan = engine.Distinct(outPlan)
	}
	return outPlan, names, nil
}

// planFrom builds the join tree for the FROM clause, consuming the WHERE
// clause's equi-join conjuncts and applying all remaining predicates as a
// filter. It returns the joined plan and its name scope. A FROM-less block
// reads one row with no columns, so its select list evaluates at execution
// like any other.
func planFrom(c *engine.Cluster, sel *SelectStmt, resolve Resolver, pp *planParams) (engine.Plan, scope, error) {
	var plan engine.Plan = engine.Values(nil, []engine.Row{{}})
	var sc scope
	// Plan every FROM item (a relation plus its explicit joins) exactly once;
	// the join search below only matches conjuncts against their scopes, so
	// a derived table is never re-planned however the items are ordered.
	type fromPlan struct {
		plan engine.Plan
		sc   scope
		ref  TableRef
	}
	var remaining []fromPlan
	for i, fi := range sel.From {
		p, s, err := planFromItem(c, fi, resolve, pp)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			plan, sc = p, s
			continue
		}
		remaining = append(remaining, fromPlan{p, s, fi.Table})
	}
	conjuncts := splitConjuncts(sel.Where)
	// Greedily fold in comma-joined items using WHERE equi-join conjuncts,
	// the way a database planner orders a join list.
	for len(remaining) > 0 {
		progressed := false
		for ri, r := range remaining {
			// Find a conjunct linking current scope to this item's scope.
			for ci, cj := range conjuncts {
				lk, rk, ok := equiJoinKeys(cj, sc, r.sc)
				if !ok {
					continue
				}
				plan = engine.Join(plan, r.plan, lk, rk)
				sc = append(append(scope{}, sc...), r.sc...)
				conjuncts = append(conjuncts[:ci], conjuncts[ci+1:]...)
				remaining = append(remaining[:ri], remaining[ri+1:]...)
				progressed = true
				break
			}
			if progressed {
				break
			}
		}
		if !progressed {
			return nil, nil, fmt.Errorf("sql: no join condition found for table %q (cartesian products are not supported)", remaining[0].ref.label())
		}
	}
	// Apply leftover conjuncts as filters.
	for _, cj := range conjuncts {
		pred, err := compileScalar(c, cj, sc)
		if err != nil {
			return nil, nil, err
		}
		plan = engine.Filter(plan, pred)
	}
	return plan, sc, nil
}

// planDelete plans DELETE FROM t WHERE p as the FROM of SELECT * FROM t
// WHERE p: a Filter per WHERE conjunct over Scan(t), the chain the
// engine's DeleteRows runs over the table's stored chunks.
func planDelete(c *engine.Cluster, st *DeleteStmt, resolve Resolver, pp *planParams) (engine.Plan, error) {
	sel := &SelectStmt{From: []FromItem{{Table: TableRef{Table: st.Name, Param: st.NameParam}}}, Where: st.Where}
	plan, _, err := planFrom(c, sel, resolve, pp)
	return plan, err
}

// planFromItem plans one FROM element: a base table and its explicit JOIN
// chain.
func planFromItem(c *engine.Cluster, fi FromItem, resolve Resolver, pp *planParams) (engine.Plan, scope, error) {
	plan, sc, err := planTableRef(c, fi.Table, resolve, pp)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range fi.Joins {
		rPlan, rScope, err := planTableRef(c, j.Table, resolve, pp)
		if err != nil {
			return nil, nil, err
		}
		lk, rk, ok := equiJoinKeys(j.On, sc, rScope)
		if !ok {
			return nil, nil, fmt.Errorf("sql: JOIN ... ON must be an equality between one column of each side")
		}
		if j.LeftOuter {
			plan = engine.LeftJoin(plan, rPlan, lk, rk)
		} else {
			plan = engine.Join(plan, rPlan, lk, rk)
		}
		sc = append(append(scope{}, sc...), rScope...)
	}
	return plan, sc, nil
}

// planTableRef plans one FROM relation with its alias scope: every column
// is qualified by the alias (or table name) as written, and an alias column
// list renames the columns positionally.
func planTableRef(c *engine.Cluster, ref TableRef, resolve Resolver, pp *planParams) (engine.Plan, scope, error) {
	plan, cols, err := planRelation(c, ref, resolve, pp)
	if err != nil {
		return nil, nil, err
	}
	if ref.Cols != nil {
		if len(ref.Cols) != len(cols) {
			return nil, nil, fmt.Errorf("sql: %q has %d columns, but its alias lists %d", ref.label(), len(cols), len(ref.Cols))
		}
		cols = ref.Cols
	}
	sc := make(scope, len(cols))
	for i, col := range cols {
		sc[i] = scopeCol{qual: ref.Name(), name: col}
	}
	return plan, sc, nil
}

// planRelation plans the relation a TableRef reads and returns its column
// names. A derived table is planned like any SELECT, with the statement's
// parameters. A base table's catalog lookup goes through the resolver, so
// session-namespaced tables keep their source-level names inside
// expressions. Parameterised references take their schema from the table
// currently bound to the parameter; in template mode the scan is emitted
// under a placeholder name that execute substitutes.
func planRelation(c *engine.Cluster, ref TableRef, resolve Resolver, pp *planParams) (engine.Plan, engine.Schema, error) {
	if ref.Sub != nil {
		return planSelectParams(c, ref.Sub, resolve, pp)
	}
	if ref.Param > 0 {
		if pp == nil || pp.tables == nil {
			return nil, nil, fmt.Errorf("sql: table parameter $%d requires Prepare", ref.Param)
		}
		phys, ok := pp.tables[ref.Param]
		if !ok {
			return nil, nil, fmt.Errorf("sql: table parameter $%d is not bound", ref.Param)
		}
		t, ok := c.Table(phys)
		if !ok {
			return nil, nil, fmt.Errorf("sql: table %q does not exist", phys)
		}
		if pp.paramSchemas == nil {
			pp.paramSchemas = make(map[int]engine.Schema)
		}
		pp.paramSchemas[ref.Param] = append(engine.Schema(nil), t.Schema...)
		name := phys
		if pp.placeholders {
			name = paramScanName(ref.Param)
		}
		return engine.Scan(name), t.Schema, nil
	}
	stored := ref.Table
	if resolve != nil {
		stored = resolve(ref.Table)
	}
	t, ok := c.Table(stored)
	if !ok {
		return nil, nil, fmt.Errorf("sql: table %q does not exist", ref.Table)
	}
	if pp != nil {
		pp.deps = append(pp.deps, tableDep{
			logical: ref.Table,
			phys:    stored,
			schema:  append(engine.Schema(nil), t.Schema...),
		})
	}
	return engine.Scan(stored), t.Schema, nil
}

// splitConjuncts flattens a WHERE expression into AND-connected conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// equiJoinKeys recognises "a.x = b.y" with one side resolving in left scope
// and the other in right scope, returning the key positions.
func equiJoinKeys(e Expr, left, right scope) (lk, rk int, ok bool) {
	b, isBin := e.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return 0, 0, false
	}
	li, lok := b.L.(*Ident)
	ri, rok := b.R.(*Ident)
	if !lok || !rok {
		return 0, 0, false
	}
	if l, err := left.resolve(li); err == nil {
		if r, err := right.resolve(ri); err == nil {
			return l, r, true
		}
	}
	// Try swapped orientation.
	if l, err := left.resolve(ri); err == nil {
		if r, err := right.resolve(li); err == nil {
			return l, r, true
		}
	}
	return 0, 0, false
}

// containsAgg reports whether an expression contains an aggregate call.
func containsAgg(e Expr) bool {
	switch e := e.(type) {
	case *Call:
		if isAggName(e.Name) {
			return true
		}
		for _, a := range e.Args {
			if containsAgg(a) {
				return true
			}
		}
	case *BinaryExpr:
		return containsAgg(e.L) || containsAgg(e.R)
	case *IsNullExpr:
		return containsAgg(e.Arg)
	}
	return false
}

// compileScalar lowers an AST expression to an engine expression against a
// scope. Aggregate calls are rejected here; they are handled by
// planAggregate.
func compileScalar(c *engine.Cluster, e Expr, sc scope) (engine.Expr, error) {
	return compileExpr(c, e, sc.colRef, func(call *Call) (engine.Expr, error) {
		return nil, fmt.Errorf("sql: aggregate %s() is not allowed here", call.Name)
	})
}

// colRef compiles a column reference against the scope.
func (s scope) colRef(id *Ident) (engine.Expr, error) {
	idx, err := s.resolve(id)
	if err != nil {
		return nil, err
	}
	return engine.NamedCol(idx, identString(id)), nil
}

// compileExpr lowers an AST expression to an engine expression; col and
// agg compile the leaves whose meaning depends on the row layout the
// expression reads — column references and aggregate calls.
func compileExpr(c *engine.Cluster, e Expr, col func(*Ident) (engine.Expr, error), agg func(*Call) (engine.Expr, error)) (engine.Expr, error) {
	sub := func(e Expr) (engine.Expr, error) { return compileExpr(c, e, col, agg) }
	switch e := e.(type) {
	case *NumLit:
		return engine.Const(e.Val), nil
	case *NullLit:
		return engine.Null, nil
	case *ParamRef:
		return paramExpr{Index: e.Index}, nil
	case *Ident:
		return col(e)
	case *BinaryExpr:
		op, ok := binOps[e.Op]
		if !ok {
			return nil, fmt.Errorf("sql: unsupported operator %q", e.Op)
		}
		l, err := sub(e.L)
		if err != nil {
			return nil, err
		}
		r, err := sub(e.R)
		if err != nil {
			return nil, err
		}
		return engine.Bin(op, l, r), nil
	case *IsNullExpr:
		arg, err := sub(e.Arg)
		if err != nil {
			return nil, err
		}
		return engine.IsNullExpr{Arg: arg, Negate: e.Negate}, nil
	case *Call:
		if isAggName(e.Name) {
			return agg(e)
		}
		args := make([]engine.Expr, len(e.Args))
		for i, a := range e.Args {
			ea, err := sub(a)
			if err != nil {
				return nil, err
			}
			args[i] = ea
		}
		switch e.Name {
		case "least":
			return engine.Least(args...), nil
		case "coalesce":
			return engine.Coalesce(args...), nil
		}
		return c.CallUDF(e.Name, args...)
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

var binOps = map[string]engine.BinOp{
	"=": engine.OpEq, "!=": engine.OpNe, "<": engine.OpLt, "<=": engine.OpLe,
	">": engine.OpGt, ">=": engine.OpGe, "+": engine.OpAdd, "-": engine.OpSub,
	"and": engine.OpAnd, "or": engine.OpOr,
}

// planProjection lowers the select list of a non-aggregating query.
func planProjection(c *engine.Cluster, sel *SelectStmt, in engine.Plan, sc scope) (engine.Plan, engine.Schema, error) {
	cols := make([]engine.ProjCol, len(sel.Items))
	names := make(engine.Schema, len(sel.Items))
	for i, item := range sel.Items {
		e, err := compileScalar(c, item.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		names[i] = itemName(item, i)
		cols[i] = engine.ProjCol{Expr: e, Name: names[i]}
	}
	return engine.Project(in, cols...), names, nil
}

// planAggregate lowers a grouped (or globally aggregated) select.
func planAggregate(c *engine.Cluster, sel *SelectStmt, in engine.Plan, sc scope) (engine.Plan, engine.Schema, error) {
	// Resolve group keys.
	keys := make([]int, len(sel.GroupBy))
	keyOut := make(map[int]int) // input position -> key output position
	for i, id := range sel.GroupBy {
		idx, err := sc.resolve(id)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = idx
		keyOut[idx] = i
	}
	// Collect aggregate calls from all select items (by pointer identity).
	var aggs []engine.Agg
	aggPos := make(map[*Call]int)
	var collect func(e Expr) error
	collect = func(e Expr) error {
		switch e := e.(type) {
		case *Call:
			if isAggName(e.Name) {
				if containsNestedAgg(e.Args) {
					return fmt.Errorf("sql: nested aggregates are not allowed")
				}
				var arg engine.Expr
				var op engine.AggOp
				switch e.Name {
				case "min":
					op = engine.AggMin
				case "max":
					op = engine.AggMax
				case "count":
					op = engine.AggCount
				case "sum":
					op = engine.AggSum
				}
				if !e.Star {
					if len(e.Args) != 1 {
						return fmt.Errorf("sql: %s() takes exactly one argument", e.Name)
					}
					var err error
					arg, err = compileScalar(c, e.Args[0], sc)
					if err != nil {
						return err
					}
				} else if e.Name != "count" {
					return fmt.Errorf("sql: %s(*) is not valid", e.Name)
				}
				aggPos[e] = len(keys) + len(aggs)
				aggs = append(aggs, engine.Agg{Op: op, Arg: arg, Name: fmt.Sprintf("agg%d", len(aggs))})
				return nil
			}
			for _, a := range e.Args {
				if err := collect(a); err != nil {
					return err
				}
			}
		case *BinaryExpr:
			if err := collect(e.L); err != nil {
				return err
			}
			return collect(e.R)
		case *IsNullExpr:
			return collect(e.Arg)
		}
		return nil
	}
	for _, item := range sel.Items {
		if err := collect(item.Expr); err != nil {
			return nil, nil, err
		}
	}
	grouped := engine.GroupBy(in, keys, aggs...)

	// Compile select items against the post-aggregation row layout:
	// group keys first, then aggregate results.
	groupCol := func(id *Ident) (engine.Expr, error) {
		idx, err := sc.resolve(id)
		if err != nil {
			return nil, err
		}
		out, ok := keyOut[idx]
		if !ok {
			return nil, fmt.Errorf("sql: column %q must appear in the GROUP BY clause or be used in an aggregate function", identString(id))
		}
		return engine.NamedCol(out, identString(id)), nil
	}
	aggResult := func(call *Call) (engine.Expr, error) { return engine.Col(aggPos[call]), nil }
	cols := make([]engine.ProjCol, len(sel.Items))
	names := make(engine.Schema, len(sel.Items))
	for i, item := range sel.Items {
		e, err := compileExpr(c, item.Expr, groupCol, aggResult)
		if err != nil {
			return nil, nil, err
		}
		names[i] = itemName(item, i)
		cols[i] = engine.ProjCol{Expr: e, Name: names[i]}
	}
	return engine.Project(grouped, cols...), names, nil
}

func containsNestedAgg(args []Expr) bool {
	for _, a := range args {
		if containsAgg(a) {
			return true
		}
	}
	return false
}

// itemName derives the output column name of a select item.
func itemName(item SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *Ident:
		return e.Name
	case *Call:
		return strings.ToLower(e.Name)
	}
	return fmt.Sprintf("column%d", pos+1)
}
