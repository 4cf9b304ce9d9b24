package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"dbcc/internal/engine"
)

// sessionSeq numbers isolated sessions so every one gets a distinct
// temporary-table namespace, even across goroutines.
var sessionSeq atomic.Uint64

// Session executes SQL statements against a cluster, mirroring the paper's
// Python driver: every executed statement reports the number of rows it
// produced, which the algorithms use as their termination signal.
//
// A Session is a lightweight, single-goroutine object; open one session per
// goroutine. The Cluster underneath is safe to share, so many sessions may
// execute statements concurrently. Sessions created with NewSession share
// the global table namespace; sessions created with NewIsolatedSession
// prefix every table they create with a session-private namespace, so
// concurrent runs of the paper's algorithms never collide on intermediate
// table names.
type Session struct {
	c    *engine.Cluster
	ns   string          // temp-table namespace prefix; "" shares the global namespace
	deny string          // bare names with this prefix never resolve globally; "" disables
	ctx  context.Context // statement execution context; nil means Background
}

// NewSession creates a session on the cluster using the shared global
// table namespace.
func NewSession(c *engine.Cluster) *Session { return &Session{c: c} }

// NewIsolatedSession creates a session whose created tables live in a
// fresh session-private namespace. References to tables the session did
// not create (for example a shared input edge table) resolve globally.
func NewIsolatedSession(c *engine.Cluster) *Session {
	return SessionWithNamespace(c, fmt.Sprintf("tmp%d_", sessionSeq.Add(1)))
}

// SessionWithNamespace creates a session with an explicit temporary-table
// namespace prefix, so a caller that also knows the physical names (the
// server's per-tenant sessions) can compute them itself.
func SessionWithNamespace(c *engine.Cluster, ns string) *Session {
	return &Session{c: c, ns: ns}
}

// RestrictPrefix returns a copy of the session whose Resolve refuses to
// fall back to global-namespace tables whose names carry the given
// prefix: such references resolve into the session's own namespace and
// therefore fail with "does not exist" unless the session created them.
// The multi-tenant server uses this to stop one tenant from naming
// another tenant's physical tables (all of which share one catalog
// prefix) while keeping genuinely shared global tables reachable. The
// receiver is unchanged.
func (s *Session) RestrictPrefix(prefix string) *Session {
	out := *s
	out.deny = prefix
	return &out
}

// WithContext returns a copy of the session whose statements execute
// under ctx: cancelling it (or its deadline expiring) aborts queries
// between operators and between segment tasks. The receiver is unchanged.
func (s *Session) WithContext(ctx context.Context) *Session {
	out := *s
	out.ctx = ctx
	return &out
}

// context returns the session's execution context, Background by default.
func (s *Session) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// Cluster returns the underlying cluster.
func (s *Session) Cluster() *engine.Cluster { return s.c }

// Resolve maps a table name as written in SQL to its catalog name: if the
// session namespace holds a table of that name it wins, otherwise the name
// refers to the shared global namespace. Within a namespace only this
// session creates and drops tables, so the existence probe is stable.
func (s *Session) Resolve(name string) string {
	if s.ns == "" {
		return name
	}
	phys := s.ns + name
	if _, ok := s.c.Table(phys); ok {
		return phys
	}
	if s.deny != "" && strings.HasPrefix(name, s.deny) {
		// Restricted prefix: never escape to the global namespace. The
		// in-namespace name (which does not exist) keeps the failure mode a
		// plain "table does not exist".
		return phys
	}
	return name
}

// tempName returns the catalog name a table created by this session gets.
func (s *Session) tempName(name string) string { return s.ns + name }

// resolver adapts Resolve for the planner; nil when no namespace is set so
// the planner takes its identity fast path.
func (s *Session) resolver() Resolver {
	if s.ns == "" {
		return nil
	}
	return s.Resolve
}

// Exec parses and executes a script of one or more statements and returns
// the row count produced by the last one (the paper's r.log_exec result).
//
// Texts consult the engine's plan cache keyed on the normalized statement
// text: a validated hit on a single SELECT or CREATE TABLE AS skips both
// parse and plan. Otherwise the text is prepared with zero parameters and
// runs through the executor prepared statements use. Statements with $N
// parameters are rejected here — they need Prepare, which binds them.
func (s *Session) Exec(src string) (int64, error) {
	n, _, _, err := s.runText(src, false)
	return n, err
}

// Query parses and executes a single SELECT, returning its schema and
// rows. Like Exec it consults the plan cache on the normalized statement
// text before paying for a parse.
func (s *Session) Query(src string) (engine.Schema, []engine.Row, error) {
	_, names, rows, err := s.runText(src, true)
	return names, rows, err
}

// Execf is Exec with fmt.Sprintf-style formatting, matching how the
// paper's driver interpolates table names and round keys into its queries.
func (s *Session) Execf(format string, args ...any) (int64, error) {
	return s.Exec(fmt.Sprintf(format, args...))
}

// Queryf is Query with fmt.Sprintf-style formatting.
func (s *Session) Queryf(format string, args ...any) (engine.Schema, []engine.Row, error) {
	return s.Query(fmt.Sprintf(format, args...))
}

// runText executes unparameterised statement text; query demands a single
// SELECT. The statement kind is checked before any counter moves.
func (s *Session) runText(src string, query bool) (int64, engine.Schema, []engine.Row, error) {
	toks, err := lex(src)
	if err != nil {
		return 0, nil, nil, err
	}
	for _, t := range toks {
		if t.kind == tokParam {
			return 0, nil, nil, fmt.Errorf("sql: statement has parameter $%s; use Prepare", t.text)
		}
	}
	norm := normalizeTokens(toks)
	// CONNECTED COMPONENTS OF has no plan to cache: only its driver's
	// statements look in the plan cache.
	if !toks[0].isKeyword("connected") {
		if t, ok := s.lookupTemplate(s.ns, norm, nil); ok {
			if query && t.kind != templateSelect {
				return 0, nil, nil, ErrNotQuery
			}
			s.c.NotePlanCacheHit()
			return s.runTemplate(t, nil)
		}
	}
	p, err := s.prepareTokens(toks, norm)
	if err != nil {
		return 0, nil, nil, err
	}
	if query && !p.IsQuery() {
		return 0, nil, nil, ErrNotQuery
	}
	return s.execute(p, nil)
}

// execStmt executes one statement that runs without a plan template —
// DDL, INSERT … VALUES, DELETE and EXPLAIN — with args bound: table
// names come from the table parameters, and value parameters bind into
// the expressions and plans the statement compiles.
func (s *Session) execStmt(st Statement, args []Arg) (int64, error) {
	switch st := st.(type) {
	case *CreateTablePlain:
		distKey := engine.NoDistKey
		if st.DistBy != "" {
			distKey = engine.Schema(st.Cols).ColIndex(st.DistBy)
			if distKey < 0 {
				return 0, fmt.Errorf("sql: DISTRIBUTED BY column %q is not among the columns %v", st.DistBy, st.Cols)
			}
		}
		_, err := s.c.CreateTable(s.tempName(tableArg(st.Name, st.NameParam, args)), engine.Schema(st.Cols), distKey)
		return 0, err

	case *ExplainStmt:
		// EXPLAIN is answered through Explain; executing it directly just
		// validates that the query plans. EXPLAIN ANALYZE does execute,
		// reporting the produced row count like any query.
		_, n, err := s.explainSelect(st.Select, st.Analyze, args)
		return n, err

	case *DropTable:
		for i, n := range st.Names {
			if err := s.c.DropTable(s.Resolve(tableArg(n, st.NameParams[i], args))); err != nil {
				return 0, err
			}
		}
		return 0, nil

	case *AlterRename:
		old := tableArg(st.Old, st.OldParam, args)
		physOld := s.Resolve(old)
		physNew := tableArg(st.New, st.NewParam, args)
		if physOld != old {
			// A session-temp table stays in the session's namespace.
			physNew = s.tempName(physNew)
		}
		return 0, s.c.RenameTable(physOld, physNew)

	case *InsertValues:
		name := tableArg(st.Name, st.NameParam, args)
		t, ok := s.c.Table(s.Resolve(name))
		if !ok {
			return 0, fmt.Errorf("sql: table %q does not exist", name)
		}
		rows := make([]engine.Row, len(st.Rows))
		for i, exprRow := range st.Rows {
			if len(exprRow) != len(t.Schema) {
				return 0, fmt.Errorf("sql: INSERT row has %d values, table %q has %d columns",
					len(exprRow), name, len(t.Schema))
			}
			row := make(engine.Row, len(exprRow))
			for j, e := range exprRow {
				ce, err := compileScalar(s.c, e, nil)
				if err != nil {
					return 0, err
				}
				if row[j], err = engine.EvalConst(instantiateExpr(ce, args)); err != nil {
					return 0, err
				}
			}
			rows[i] = row
		}
		if err := s.c.InsertRows(s.Resolve(name), rows); err != nil {
			return 0, err
		}
		return int64(len(rows)), nil

	case *DeleteStmt:
		plan, err := planDelete(s.c, st, s.resolver(), &planParams{tables: s.resolveTableArgs(args)})
		if err != nil {
			return 0, err
		}
		return s.c.DeleteRows(s.context(), instantiatePlan(plan, nil, args))

	case *CreateComponentIndex:
		return 0, s.c.CreateComponentIndex(s.Resolve(tableArg(st.Table, st.TableParam, args)))

	case *DropComponentIndex:
		return 0, s.c.DropComponentIndex(s.Resolve(tableArg(st.Table, st.TableParam, args)))
	}
	return 0, fmt.Errorf("sql: unsupported statement %T", st)
}

// RunConnectedComponents runs the driver of a CONNECTED COMPONENTS OF
// statement: the named algorithm over a catalog table under ctx, with the
// given seed, reporting the component count, the rounds run and the
// vertex count. Package ccalg sets it (ccalg imports sql, so sql cannot
// call ccalg); while it is nil the statement fails.
var RunConnectedComponents func(ctx context.Context, c *engine.Cluster, table, algorithm string, seed uint64) (components, rounds, vertices int64, err error)

// connectedComponents runs a CONNECTED COMPONENTS OF statement with args
// bound and returns its one row. The table resolves through the session,
// so a restricted session cannot name another tenant's tables. The
// statement itself reaches the engine only through its driver: it takes
// no statement number of its own and never resets the cluster counters.
func (s *Session) connectedComponents(st *ConnectedComponents, args []Arg) (engine.Schema, []engine.Row, error) {
	if RunConnectedComponents == nil {
		return nil, nil, errors.New("sql: CONNECTED COMPONENTS needs package ccalg linked in")
	}
	name := tableArg(st.Table, st.TableParam, args)
	phys := s.Resolve(name)
	if _, ok := s.c.Table(phys); !ok {
		return nil, nil, fmt.Errorf("sql: table %q does not exist", name)
	}
	var seed engine.Datum
	if st.Seed != nil {
		ce, err := compileScalar(s.c, st.Seed, nil)
		if err == nil {
			seed, err = engine.EvalConst(instantiateExpr(ce, args))
		}
		if err == nil && seed.Null {
			err = errors.New("sql: SEED is NULL")
		}
		if err != nil {
			return nil, nil, err
		}
	}
	comps, rounds, verts, err := RunConnectedComponents(s.context(), s.c, phys, st.Using, uint64(seed.Int))
	if err != nil {
		return nil, nil, err
	}
	return engine.Schema{"components", "rounds", "vertices"},
		[]engine.Row{{engine.I(comps), engine.I(rounds), engine.I(verts)}}, nil
}

// planBound plans a select for one execution with args bound: table
// parameters scan their bound tables and value parameters become
// constants.
func (s *Session) planBound(sel *SelectStmt, args []Arg) (engine.Plan, engine.Schema, error) {
	plan, names, err := planSelectParams(s.c, sel, s.resolver(), &planParams{tables: s.resolveTableArgs(args)})
	if err != nil {
		return nil, nil, err
	}
	return instantiatePlan(plan, nil, args), names, nil
}

// Explain plans a SELECT (or EXPLAIN [ANALYZE] SELECT) statement and
// returns the engine operator tree as text. A plain EXPLAIN only plans;
// EXPLAIN ANALYZE (or ExplainAnalyze) also executes the query and
// annotates every operator with its measured actual rows, bytes, wall
// time and per-segment breakdown.
func (s *Session) Explain(src string) (string, error) { return s.explainText(src, false) }

// ExplainAnalyze executes a SELECT and returns the annotated operator
// profile report, regardless of whether the source text carries the
// EXPLAIN ANALYZE prefix.
func (s *Session) ExplainAnalyze(src string) (string, error) { return s.explainText(src, true) }

// explainText is the body of Explain and ExplainAnalyze.
func (s *Session) explainText(src string, analyze bool) (string, error) {
	s.c.NoteParse()
	st, err := ParseOne(src)
	if err != nil {
		return "", err
	}
	var sel *SelectStmt
	switch st := st.(type) {
	case *ExplainStmt:
		sel, analyze = st.Select, analyze || st.Analyze
	case *SelectQuery:
		sel = st.Select
	case *CreateTableAs:
		if analyze {
			return "", fmt.Errorf("sql: EXPLAIN ANALYZE requires a SELECT, got %T", st)
		}
		sel = st.Select
	default:
		return "", fmt.Errorf("sql: EXPLAIN requires a SELECT, got %T", st)
	}
	report, _, err := s.explainSelect(sel, analyze, nil)
	return report, err
}

// explainSelect plans a select with args bound and renders its EXPLAIN
// report; with analyze it also executes the plan, annotates the report
// with the measured profile and returns the produced row count.
func (s *Session) explainSelect(sel *SelectStmt, analyze bool, args []Arg) (string, int64, error) {
	plan, names, err := s.planBound(sel, args)
	if err != nil {
		return "", 0, err
	}
	if !analyze {
		return FormatExplain(plan, names), 0, nil
	}
	_, rows, root, err := s.c.QueryAnalyzeCtx(s.context(), renameOutput(plan, names))
	if err != nil {
		return "", 0, err
	}
	return FormatExplainAnalyze(root, names, int64(len(rows))) + s.planCacheLine(), int64(len(rows)), nil
}

// planCacheLine renders the cluster's plan-cache counters for EXPLAIN
// ANALYZE reports.
func (s *Session) planCacheLine() string {
	st := s.c.Stats()
	return fmt.Sprintf("Plan cache: %d hits, %d misses, %d invalidations, %d entries, %d parses\n",
		st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheInvalidations, s.c.PlanCacheLen(), st.Parses)
}

// renameOutput wraps the plan so the materialised table carries the SELECT
// list's output names (projections already do; joins and scans may not).
func renameOutput(plan engine.Plan, names engine.Schema) engine.Plan {
	if pp, ok := plan.(engine.ProjectPlan); ok {
		match := len(pp.Cols) == len(names)
		for i := range pp.Cols {
			if !match {
				break
			}
			match = pp.Cols[i].Name == names[i]
		}
		if match {
			return plan
		}
	}
	cols := make([]engine.ProjCol, len(names))
	for i, n := range names {
		cols[i] = engine.ProjCol{Expr: engine.Col(i), Name: n}
	}
	return engine.Project(plan, cols...)
}
