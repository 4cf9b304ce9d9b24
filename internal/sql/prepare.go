package sql

import (
	"errors"
	"fmt"
	"strings"

	"dbcc/internal/engine"
)

// This file implements $1-style prepared statements: parse and plan once,
// execute many times. A Prepared handle carries the parsed AST. A SELECT,
// CREATE TABLE AS or INSERT … SELECT is compiled on first execute into a
// planTemplate — an engine plan whose value parameters are paramExpr
// placeholders and whose parameterised table scans read placeholder names
// — and cached in the engine's plan cache. Each execute rebuilds a
// concrete plan by walking the immutable template and substituting the
// bound constants and physical table names, which is orders of magnitude
// cheaper than parsing and planning SQL text. Every other statement binds the same way at execute
// time: table parameters name the tables it touches, and value parameters
// bind into the expressions and plans it compiles. Unparameterised text
// (Session.Exec/Query) is a Prepared with zero parameters and runs through
// the same executor.
//
// Two parameter kinds exist, inferred from where $N appears:
//
//   - value parameters ($N in expression position) bind int64 or NULL;
//   - table parameters ($N in table-name position) bind a table name, the
//     mechanism that lets the round-N temp-table rename dance of the CC
//     drivers reuse one cached plan while the physical tables change.
//
// Statements whose plans name no fixed table — every table reference a
// parameter, or a FROM-less SELECT — produce namespace-independent cache
// entries (the "" namespace), so sessions with different temp-table
// prefixes — successive algorithm runs, or different server connections —
// share one template. Correctness never rests on invalidation alone: every
// cache hit is validated against the current catalog (each fixed table must
// still resolve to the same physical table with the same schema, and each
// bound table's schema must match the one planned against) and a failed
// validation replans, counting a miss.

// Arg is one bound parameter value: an integer, NULL, or a table name.
type Arg struct {
	kind  argKind
	i     int64
	table string
}

type argKind int

const (
	argInt argKind = iota
	argNull
	argTable
)

// Int binds an integer value parameter.
func Int(v int64) Arg { return Arg{kind: argInt, i: v} }

// Null binds SQL NULL to a value parameter.
func Null() Arg { return Arg{kind: argNull} }

// Table binds a table name (in the session's logical namespace) to a table
// parameter.
func Table(name string) Arg { return Arg{kind: argTable, table: name} }

// IsTable reports whether the argument is a table-name binding.
func (a Arg) IsTable() bool { return a.kind == argTable }

// TableName returns the bound table name ("" for value arguments).
func (a Arg) TableName() string { return a.table }

// Int64 returns the bound integer value and whether the argument is a
// non-NULL integer.
func (a Arg) Int64() (int64, bool) { return a.i, a.kind == argInt }

// String renders the argument the way it would appear inline in SQL.
func (a Arg) String() string {
	switch a.kind {
	case argNull:
		return "null"
	case argTable:
		return a.table
	default:
		return fmt.Sprintf("%d", a.i)
	}
}

// BindError is the typed error for parameter binding failures: argument
// count mismatches and kind mismatches (a table name bound to a value
// parameter or vice versa).
type BindError struct {
	Want int    // parameters the statement declares
	Got  int    // arguments supplied
	Msg  string // human-readable detail
}

func (e *BindError) Error() string { return "sql: bind: " + e.Msg }

// paramExpr is a $N placeholder inside a compiled plan or expression. It
// never executes: instantiation replaces it with a ConstExpr before the
// engine sees the plan, and the engine fails a statement that still holds
// one, naming its type.
type paramExpr struct{ Index int }

func (e paramExpr) String() string { return fmt.Sprintf("$%d", e.Index) }

// Prepared is a parameterised statement handle: the script is lexed and
// parsed exactly once, at Prepare time. A handle is a lightweight
// single-goroutine object like the Session that created it; the plan
// templates built from it live in the cluster-wide plan cache and are
// shared across handles and sessions.
type Prepared struct {
	s          *Session
	src        string
	norm       string // normalized text, the cache-key component
	stmts      []Statement
	numParams  int
	tableParam []bool // index i: is $i+1 a table parameter?
	nsKeys     []string
}

// NumParams returns how many $N parameters the statement declares.
func (p *Prepared) NumParams() int { return p.numParams }

// ParamIsTable reports whether parameter n (1-based) is a table parameter.
func (p *Prepared) ParamIsTable(n int) bool {
	return n >= 1 && n <= p.numParams && p.tableParam[n-1]
}

// IsQuery reports whether the prepared script is a single SELECT, i.e.
// whether Query returns rows.
func (p *Prepared) IsQuery() bool {
	if len(p.stmts) != 1 {
		return false
	}
	_, ok := p.stmts[0].(*SelectQuery)
	return ok
}

// Source returns the statement text as given to Prepare.
func (p *Prepared) Source() string { return p.src }

// Prepare lexes and parses a script once, returning a handle that executes
// it with bound parameters. Parameters must be numbered contiguously from
// $1, and each parameter must be used consistently as either a value or a
// table name.
func (s *Session) Prepare(src string) (*Prepared, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return s.prepareTokens(src, toks, normalizeTokens(toks))
}

// prepareTokens parses a lexed script, whose normalized text is norm, into
// a handle, counting the parse.
func (s *Session) prepareTokens(src string, toks []token, norm string) (*Prepared, error) {
	s.c.NoteParse()
	stmts, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, &ParseError{"sql: empty statement"}
	}
	valueParams := make(map[int]bool)
	tableParams := make(map[int]bool)
	for _, st := range stmts {
		collectStmtParams(st, valueParams, tableParams)
	}
	numParams := 0
	for i := range valueParams {
		numParams = max(numParams, i)
	}
	for i := range tableParams {
		numParams = max(numParams, i)
	}
	tableParam := make([]bool, numParams)
	for i := 1; i <= numParams; i++ {
		switch {
		case valueParams[i] && tableParams[i]:
			return nil, fmt.Errorf("sql: parameter $%d is used both as a value and as a table name", i)
		case !valueParams[i] && !tableParams[i]:
			return nil, fmt.Errorf("sql: parameters must be numbered contiguously from $1; $%d is unused", i)
		case tableParams[i]:
			tableParam[i-1] = true
		}
	}
	p := &Prepared{
		s:          s,
		src:        src,
		norm:       norm,
		stmts:      stmts,
		numParams:  numParams,
		tableParam: tableParam,
		nsKeys:     make([]string, len(stmts)),
	}
	for i, st := range stmts {
		p.nsKeys[i] = s.ns
		if !namesFixedTable(st) {
			p.nsKeys[i] = ""
		}
	}
	return p, nil
}

// Bound is a Prepared statement with its arguments validated and attached.
type Bound struct {
	p    *Prepared
	args []Arg
}

// Bind validates the arguments against the statement's parameter list and
// returns an executable binding. Count or kind mismatches return a typed
// *BindError.
func (p *Prepared) Bind(args ...Arg) (*Bound, error) {
	if err := p.checkArgs(args); err != nil {
		return nil, err
	}
	return &Bound{p: p, args: args}, nil
}

// Bind is Prepared.Bind as a session method.
func (s *Session) Bind(p *Prepared, args ...Arg) (*Bound, error) { return p.Bind(args...) }

// checkArgs validates argument count and kinds.
func (p *Prepared) checkArgs(args []Arg) error {
	if len(args) != p.numParams {
		return &BindError{
			Want: p.numParams, Got: len(args),
			Msg: fmt.Sprintf("statement declares %d parameter(s), got %d argument(s)", p.numParams, len(args)),
		}
	}
	for i, a := range args {
		if p.tableParam[i] && a.kind != argTable {
			return &BindError{Want: p.numParams, Got: len(args),
				Msg: fmt.Sprintf("parameter $%d is a table name; bind it with Table(...)", i+1)}
		}
		if !p.tableParam[i] && a.kind == argTable {
			return &BindError{Want: p.numParams, Got: len(args),
				Msg: fmt.Sprintf("parameter $%d is a value; got a table name", i+1)}
		}
		if a.kind == argTable && a.table == "" {
			return &BindError{Want: p.numParams, Got: len(args),
				Msg: fmt.Sprintf("parameter $%d: empty table name", i+1)}
		}
	}
	return nil
}

// Exec binds the arguments and executes the statement(s), returning the
// row count of the last one, like Session.Exec.
func (p *Prepared) Exec(args ...Arg) (int64, error) {
	b, err := p.Bind(args...)
	if err != nil {
		return 0, err
	}
	return p.s.ExecutePrepared(b)
}

// Query binds the arguments and executes a single prepared SELECT,
// returning its schema and rows, like Session.Query.
func (p *Prepared) Query(args ...Arg) (engine.Schema, []engine.Row, error) {
	b, err := p.Bind(args...)
	if err != nil {
		return nil, nil, err
	}
	return p.s.QueryPrepared(b)
}

// ExecutePrepared executes a bound statement against this session,
// returning the row count of the last sub-statement.
func (s *Session) ExecutePrepared(b *Bound) (int64, error) {
	n, _, _, err := s.execute(b.p, b.args)
	return n, err
}

// QueryPrepared executes a bound single-SELECT statement, returning its
// schema and rows.
func (s *Session) QueryPrepared(b *Bound) (engine.Schema, []engine.Row, error) {
	if !b.p.IsQuery() {
		return nil, nil, ErrNotQuery
	}
	_, names, rows, err := s.execute(b.p, b.args)
	return names, rows, err
}

// ErrNotQuery refuses Query on anything but a single SELECT.
var ErrNotQuery = errors.New("sql: Query requires a single SELECT statement")

// execute is the one statement executor behind Exec, Query and their
// prepared forms. It runs every statement of the script with args bound
// and returns the last statement's row count, plus its schema and rows
// when it is a SELECT. SELECT, CREATE TABLE AS and INSERT … SELECT run
// from cached plan templates; every other statement binds its arguments
// in execStmt.
func (s *Session) execute(p *Prepared, args []Arg) (n int64, names engine.Schema, rows []engine.Row, err error) {
	for i, st := range p.stmts {
		names, rows = nil, nil
		switch st.(type) {
		case *SelectQuery, *CreateTableAs, *InsertSelect:
			var t *planTemplate
			if t, err = s.templateFor(p, i, args); err == nil {
				n, names, rows, err = s.runTemplate(t, args)
			}
		default:
			n, err = s.execStmt(st, args)
		}
		if err != nil {
			return 0, nil, nil, err
		}
	}
	return n, names, rows, nil
}

// planTemplate is a compiled parameterised plan stored in the engine's
// plan cache: the plan tree with placeholders, the output names, what the
// statement does with the output (return it, or write it to a target
// table), the resolved distribution key of a CTAS, and the catalog facts
// the plan assumed (validated on every cache hit).
type planTemplate struct {
	plan        engine.Plan
	names       engine.Schema
	kind        templateKind
	target      string // CTAS or INSERT target logical name
	targetParam int    // $N of a parameterised target, else 0
	distKey     int
	deps        []tableDep
	paramScans  []paramScan
}

// templateKind is what a template's statement does with the plan output.
type templateKind int

const (
	templateSelect templateKind = iota // return the rows
	templateCreate                     // CREATE TABLE AS: write a new table
	templateInsert                     // INSERT … SELECT: append to a table
)

// paramScan records one table parameter of a template: its $N index, the
// placeholder scan name baked into the template plan, and the schema it
// was planned against. Precomputing this at build time keeps the
// per-execution path free of formatting and map allocation.
type paramScan struct {
	idx    int
	name   string
	schema engine.Schema
}

// lookupTemplate consults the plan cache and validates any hit against
// the current catalog. Invalid entries are evicted; the caller replans.
// It moves no counter: callers count the hit once they commit to running
// the template, and the miss where they replan, so hits+misses equals the
// number of cache-eligible executions.
func (s *Session) lookupTemplate(nsKey, norm string, args []Arg) (*planTemplate, bool) {
	if v, ok := s.c.PlanCacheGet(nsKey, norm); ok {
		if t, ok := v.(*planTemplate); ok && s.validateTemplate(t, args) {
			return t, true
		}
		s.c.PlanCacheRemove(nsKey, norm)
	}
	return nil, false
}

// templateFor returns the plan template for SELECT, CREATE TABLE AS or
// INSERT … SELECT sub-statement i of a script. Hits are validated against the current
// catalog before reuse; a miss (or failed validation) plans the statement
// and caches the template under (nsKey, norm), keyed to the physical
// tables it depends on.
func (s *Session) templateFor(p *Prepared, i int, args []Arg) (*planTemplate, error) {
	norm := p.norm
	if len(p.stmts) > 1 {
		norm = fmt.Sprintf("%s#%d", p.norm, i)
	}
	nsKey := p.nsKeys[i]
	if t, ok := s.lookupTemplate(nsKey, norm, args); ok {
		s.c.NotePlanCacheHit()
		return t, nil
	}
	s.c.NotePlanCacheMiss()
	t := &planTemplate{distKey: engine.NoDistKey}
	var sel *SelectStmt
	var distBy string
	switch st := p.stmts[i].(type) {
	case *SelectQuery:
		sel = st.Select
	case *CreateTableAs:
		sel, distBy = st.Select, st.DistBy
		t.kind, t.target, t.targetParam = templateCreate, st.Name, st.NameParam
	case *InsertSelect:
		sel = st.Select
		t.kind, t.target, t.targetParam = templateInsert, st.Name, st.NameParam
	}
	pp := &planParams{tables: s.resolveTableArgs(args), placeholders: true}
	plan, names, err := planSelectParams(s.c, sel, s.resolver(), pp)
	if err != nil {
		return nil, err
	}
	t.plan, t.names, t.deps = renameOutput(plan, names), names, pp.deps
	for idx, schema := range pp.paramSchemas {
		t.paramScans = append(t.paramScans, paramScan{idx: idx, name: paramScanName(idx), schema: schema})
	}
	if distBy != "" {
		if t.distKey = names.ColIndex(distBy); t.distKey < 0 {
			return nil, fmt.Errorf("sql: DISTRIBUTED BY column %q is not in the select list %v", distBy, names)
		}
	}
	deps := make([]string, len(pp.deps))
	for j, d := range pp.deps {
		deps[j] = d.phys
	}
	s.c.PlanCachePut(nsKey, norm, t, deps)
	return t, nil
}

// runTemplate executes a template with its arguments bound: a CTAS or
// INSERT … SELECT writes its target table and reports the rows written, a
// SELECT returns its schema and rows.
func (s *Session) runTemplate(t *planTemplate, args []Arg) (int64, engine.Schema, []engine.Row, error) {
	plan := s.instantiate(t, args)
	switch t.kind {
	case templateCreate:
		n, err := s.c.CreateTableAsCtx(s.context(), s.tempName(tableArg(t.target, t.targetParam, args)), plan, t.distKey)
		return n, nil, nil, err
	case templateInsert:
		name := tableArg(t.target, t.targetParam, args)
		phys := s.Resolve(name)
		tbl, ok := s.c.Table(phys)
		if !ok {
			return 0, nil, nil, fmt.Errorf("sql: table %q does not exist", name)
		}
		if len(t.names) != len(tbl.Schema) {
			return 0, nil, nil, fmt.Errorf("sql: INSERT SELECT produces %d columns, table %q has %d",
				len(t.names), name, len(tbl.Schema))
		}
		n, err := s.c.InsertSelectCtx(s.context(), phys, plan)
		return n, nil, nil, err
	}
	_, rows, err := s.c.QueryCtx(s.context(), plan)
	if err != nil {
		return 0, nil, nil, err
	}
	return int64(len(rows)), t.names, rows, nil
}

// tableArg returns the table a statement names at one position: the
// literal name, or the table bound to its $N parameter.
func tableArg(name string, param int, args []Arg) string {
	if param > 0 {
		return args[param-1].table
	}
	return name
}

// resolveTableArgs maps each table argument's logical name to the physical
// table this session reads under that name right now.
func (s *Session) resolveTableArgs(args []Arg) map[int]string {
	var m map[int]string
	for i, a := range args {
		if a.kind != argTable {
			continue
		}
		if m == nil {
			m = make(map[int]string)
		}
		m[i+1] = s.Resolve(a.table)
	}
	return m
}

// validateTemplate re-checks everything the cached plan assumed about the
// catalog: every fixed table still resolves to the same physical table
// with an unchanged schema, and every bound table parameter names an
// existing table whose schema matches the one planned against. Table
// sizes are not checked: no planning decision reads a row count.
func (s *Session) validateTemplate(t *planTemplate, args []Arg) bool {
	for _, d := range t.deps {
		if s.Resolve(d.logical) != d.phys {
			return false
		}
		tbl, ok := s.c.Table(d.phys)
		if !ok || !sameSchema(tbl.Schema, d.schema) {
			return false
		}
	}
	for _, ps := range t.paramScans {
		if ps.idx > len(args) {
			return false
		}
		tbl, ok := s.c.Table(s.Resolve(args[ps.idx-1].table))
		if !ok || !sameSchema(tbl.Schema, ps.schema) {
			return false
		}
	}
	return true
}

func sameSchema(a, b engine.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scanSub maps one placeholder scan name to the physical table it reads
// this execution. A handful of entries at most, so substitution uses a
// linear scan over a stack-friendly slice instead of a map.
type scanSub struct {
	name, phys string
}

func lookupScan(subs []scanSub, name string) (string, bool) {
	for _, s := range subs {
		if s.name == name {
			return s.phys, true
		}
	}
	return "", false
}

// instantiate turns a template into a concrete executable plan for the
// given arguments, substituting physical scan names for table-parameter
// placeholders and constants for value-parameter placeholders. This is
// the prepared path's entire per-execution planning cost, so it avoids
// maps and formatting: one slice allocation plus the plan-tree copy.
func (s *Session) instantiate(t *planTemplate, args []Arg) engine.Plan {
	hasVals := false
	for _, a := range args {
		if a.kind != argTable {
			hasVals = true
			break
		}
	}
	if len(t.paramScans) == 0 && !hasVals {
		return t.plan
	}
	var subs []scanSub
	if len(t.paramScans) > 0 {
		subs = make([]scanSub, len(t.paramScans))
		for i, ps := range t.paramScans {
			subs[i] = scanSub{name: ps.name, phys: s.Resolve(args[ps.idx-1].table)}
		}
	}
	return instantiatePlan(t.plan, subs, args)
}

// instantiatePlan rebuilds the value-typed plan tree with placeholders
// substituted. Untouched subtrees are still copied by value, which is
// cheap: the tree has a handful of nodes.
func instantiatePlan(p engine.Plan, subs []scanSub, args []Arg) engine.Plan {
	switch p := p.(type) {
	case engine.ScanPlan:
		if phys, ok := lookupScan(subs, p.Table); ok {
			return engine.ScanPlan{Table: phys}
		}
		return p
	case engine.FilterPlan:
		return engine.FilterPlan{
			Input: instantiatePlan(p.Input, subs, args),
			Pred:  instantiateExpr(p.Pred, args),
		}
	case engine.ProjectPlan:
		cols := make([]engine.ProjCol, len(p.Cols))
		for i, c := range p.Cols {
			cols[i] = engine.ProjCol{Expr: instantiateExpr(c.Expr, args), Name: c.Name}
		}
		return engine.ProjectPlan{Input: instantiatePlan(p.Input, subs, args), Cols: cols}
	case engine.JoinPlan:
		return engine.JoinPlan{
			Left:     instantiatePlan(p.Left, subs, args),
			Right:    instantiatePlan(p.Right, subs, args),
			LeftKey:  p.LeftKey,
			RightKey: p.RightKey,
			Kind:     p.Kind,
		}
	case engine.GroupByPlan:
		aggs := make([]engine.Agg, len(p.Aggs))
		for i, a := range p.Aggs {
			arg := a.Arg
			if arg != nil {
				arg = instantiateExpr(arg, args)
			}
			aggs[i] = engine.Agg{Op: a.Op, Arg: arg, Name: a.Name}
		}
		return engine.GroupByPlan{Input: instantiatePlan(p.Input, subs, args), Keys: p.Keys, Aggs: aggs}
	case engine.DistinctPlan:
		return engine.DistinctPlan{Input: instantiatePlan(p.Input, subs, args)}
	case engine.UnionAllPlan:
		ins := make([]engine.Plan, len(p.Inputs))
		for i, in := range p.Inputs {
			ins[i] = instantiatePlan(in, subs, args)
		}
		return engine.UnionAllPlan{Inputs: ins}
	case engine.SortPlan:
		return engine.SortPlan{Input: instantiatePlan(p.Input, subs, args), Keys: p.Keys, Limit: p.Limit}
	default:
		// ValuesPlan and any future leaf: nothing to substitute.
		return p
	}
}

// instantiateExpr rebuilds an expression tree with paramExpr placeholders
// replaced by the bound constants, read straight from the argument slice.
func instantiateExpr(e engine.Expr, args []Arg) engine.Expr {
	switch e := e.(type) {
	case paramExpr:
		a := args[e.Index-1]
		if a.kind == argNull {
			return engine.ConstExpr{Val: engine.NullDatum}
		}
		return engine.ConstExpr{Val: engine.I(a.i)}
	case engine.BinExpr:
		return engine.BinExpr{Op: e.Op, Left: instantiateExpr(e.Left, args), Right: instantiateExpr(e.Right, args)}
	case engine.LeastExpr:
		return engine.LeastExpr{Args: instantiateExprs(e.Args, args)}
	case engine.CoalesceExpr:
		return engine.CoalesceExpr{Args: instantiateExprs(e.Args, args)}
	case engine.IsNullExpr:
		return engine.IsNullExpr{Arg: instantiateExpr(e.Arg, args), Negate: e.Negate}
	case engine.UDFExpr:
		e.Args = instantiateExprs(e.Args, args) // e is a copy: the template keeps its own Args
		return e
	default:
		// ColRef, ConstExpr: no parameters below.
		return e
	}
}

func instantiateExprs(es []engine.Expr, args []Arg) []engine.Expr {
	out := make([]engine.Expr, len(es))
	for i, e := range es {
		out[i] = instantiateExpr(e, args)
	}
	return out
}

// --- AST parameter analysis ---

// collectStmtParams records which $N indices appear as value parameters
// and which as table-name parameters.
func collectStmtParams(st Statement, values, tables map[int]bool) {
	switch st := st.(type) {
	case *CreateTableAs:
		if st.NameParam > 0 {
			tables[st.NameParam] = true
		}
		collectSelectParams(st.Select, values, tables)
	case *CreateTablePlain:
		if st.NameParam > 0 {
			tables[st.NameParam] = true
		}
	case *DropTable:
		for _, prm := range st.NameParams {
			if prm > 0 {
				tables[prm] = true
			}
		}
	case *AlterRename:
		if st.OldParam > 0 {
			tables[st.OldParam] = true
		}
		if st.NewParam > 0 {
			tables[st.NewParam] = true
		}
	case *InsertValues:
		if st.NameParam > 0 {
			tables[st.NameParam] = true
		}
		for _, row := range st.Rows {
			for _, e := range row {
				collectExprParams(e, values)
			}
		}
	case *InsertSelect:
		if st.NameParam > 0 {
			tables[st.NameParam] = true
		}
		collectSelectParams(st.Select, values, tables)
	case *DeleteStmt:
		if st.NameParam > 0 {
			tables[st.NameParam] = true
		}
		collectExprParams(st.Where, values)
	case *CreateComponentIndex:
		if st.TableParam > 0 {
			tables[st.TableParam] = true
		}
	case *DropComponentIndex:
		if st.TableParam > 0 {
			tables[st.TableParam] = true
		}
	case *ExplainStmt:
		collectSelectParams(st.Select, values, tables)
	case *SelectQuery:
		collectSelectParams(st.Select, values, tables)
	}
}

func collectSelectParams(sel *SelectStmt, values, tables map[int]bool) {
	walkSelect(sel, func(ref TableRef) {
		if ref.Param > 0 {
			tables[ref.Param] = true
		}
	}, func(e Expr) { collectExprParams(e, values) })
}

// walkSelect calls ref for every table reference and expr for every
// expression of a SELECT, its UNION ALL blocks and its subqueries.
func walkSelect(sel *SelectStmt, ref func(TableRef), expr func(Expr)) {
	for ; sel != nil; sel = sel.UnionAll {
		for _, item := range sel.Items {
			expr(item.Expr)
		}
		for _, fi := range sel.From {
			ref(fi.Table)
			walkSelect(fi.Table.Sub, ref, expr)
			for _, j := range fi.Joins {
				ref(j.Table)
				walkSelect(j.Table.Sub, ref, expr)
				expr(j.On)
			}
		}
		expr(sel.Where)
	}
}

func collectExprParams(e Expr, values map[int]bool) {
	switch e := e.(type) {
	case nil:
	case *ParamRef:
		values[e.Index] = true
	case *BinaryExpr:
		collectExprParams(e.L, values)
		collectExprParams(e.R, values)
	case *Call:
		for _, a := range e.Args {
			collectExprParams(a, values)
		}
	case *IsNullExpr:
		collectExprParams(e.Arg, values)
	}
}

// namesFixedTable reports whether a SELECT, CREATE TABLE AS or INSERT …
// SELECT reads a table by literal name, in any of its subqueries. Plans that do not —
// every table reference a parameter, or no table at all — are cached
// namespace-independently.
func namesFixedTable(st Statement) bool {
	var sel *SelectStmt
	switch st := st.(type) {
	case *CreateTableAs:
		sel = st.Select
	case *SelectQuery:
		sel = st.Select
	case *InsertSelect:
		sel = st.Select
	}
	fixed := false
	walkSelect(sel, func(ref TableRef) {
		fixed = fixed || (ref.Sub == nil && ref.Param == 0)
	}, func(Expr) {})
	return fixed
}

// normalizeTokens renders a token stream in canonical form — lower-cased
// tokens separated by single spaces — the normalization the plan cache
// keys on, so formatting and case differences never duplicate entries.
func normalizeTokens(toks []token) string {
	var b strings.Builder
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if t.kind == tokParam {
			b.WriteByte('$')
		}
		b.WriteString(strings.ToLower(t.text))
	}
	return b.String()
}
