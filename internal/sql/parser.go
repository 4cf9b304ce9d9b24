package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// parser consumes a token stream.
type parser struct {
	toks  []token
	i     int
	depth int // current nesting of parentheses, call arguments and subqueries
}

// maxDepth bounds how deep the trees the parser builds may nest —
// parenthesised expressions, function-call arguments, FROM subqueries, and
// the left-deep trees of AND/OR/+/- chains and UNION ALL chains — so
// hostile text fails with an error instead of exhausting the goroutine
// stack (while parsing, planning or executing), a fatal error no recover
// can catch.
const maxDepth = 256

// enter descends one nesting level. Every rule that calls it first defers
// p.setDepth(p.depth), which restores the depth the rule started at however
// it returns; chain rules then enter once per link.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errf("nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) setDepth(d int) { p.depth = d }

// Parse parses a script of zero or more semicolon-separated statements.
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses an already-lexed token stream, so callers that lex
// once for cache-key normalization need not lex again to parse.
func parseTokens(toks []token) ([]Statement, error) {
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.peek().text == ";" {
			p.next()
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.peek().text == ";" {
			p.next()
		} else if p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input, found %q", p.peek().text)
		}
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atKw(kw string) bool {
	return p.peek().isKeyword(kw)
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.next()
		return true
	}
	return false
}

// expectKw consumes the keyword or fails.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

// expectSym consumes the symbol or fails.
func (p *parser) expectSym(sym string) error {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return nil
	}
	return p.errf("expected %q, found %q", sym, p.peek().text)
}

// acceptSym consumes the symbol if present.
func (p *parser) acceptSym(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

// ParseError is statement text the lexer or parser rejected, or text that
// holds no statement: a fault of the text, not of its execution.
type ParseError struct{ Msg string }

func (e *ParseError) Error() string { return e.Msg }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{fmt.Sprintf("sql: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))}
}

// ident consumes an identifier (keywords double as identifiers in this
// dialect, like PostgreSQL's non-reserved words).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.next()
	return strings.ToLower(t.text), nil
}

// paramIndex parses the digits of a tokParam into a 1-based index.
func (p *parser) paramIndex(t token) (int, error) {
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 1 || n > maxParams {
		return 0, p.errf("bad parameter $%s (parameters are $1..$%d)", t.text, maxParams)
	}
	return n, nil
}

// maxParams bounds parameter indices; statements never need more, and the
// bound keeps hostile $999999999 texts from allocating huge bind arrays.
const maxParams = 64

// tableName consumes a table-name position: an identifier, or a $N
// parameter (returned as the second value, with an empty name).
func (p *parser) tableName() (string, int, error) {
	if t := p.peek(); t.kind == tokParam {
		p.next()
		idx, err := p.paramIndex(t)
		if err != nil {
			return "", 0, err
		}
		return "", idx, nil
	}
	name, err := p.ident()
	return name, 0, err
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.atKw("create"):
		return p.createTableAs()
	case p.atKw("drop"):
		return p.dropTable()
	case p.atKw("alter"):
		return p.alterRename()
	case p.atKw("insert"):
		return p.insertValues()
	case p.atKw("delete"):
		return p.deleteFrom()
	case p.atKw("explain"):
		p.next()
		analyze := p.acceptKw("analyze")
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel, Analyze: analyze}, nil
	case p.atKw("select"):
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &SelectQuery{Select: sel}, nil
	case p.atKw("connected"):
		return p.connectedComponents()
	}
	return nil, p.errf("expected statement, found %q", p.peek().text)
}

// connectedComponents parses CONNECTED COMPONENTS OF name [USING alg]
// [SEED expr], where name may be a $N parameter.
func (p *parser) connectedComponents() (Statement, error) {
	p.next() // connected
	if err := p.expectKw("components"); err != nil {
		return nil, err
	}
	if err := p.expectKw("of"); err != nil {
		return nil, err
	}
	name, nameParam, err := p.tableName()
	if err != nil {
		return nil, err
	}
	st := &ConnectedComponents{Table: name, TableParam: nameParam, Using: "rc"}
	if p.acceptKw("using") {
		if st.Using, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("seed") {
		st.Seed, err = p.expression()
	}
	return st, err
}

func (p *parser) createTableAs() (Statement, error) {
	p.next() // create
	if p.atKw("component") {
		p.next()
		if err := p.expectKw("index"); err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		name, nameParam, err := p.tableName()
		if err != nil {
			return nil, err
		}
		return &CreateComponentIndex{Table: name, TableParam: nameParam}, nil
	}
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, nameParam, err := p.tableName()
	if err != nil {
		return nil, err
	}
	// Plain DDL form: CREATE TABLE name (col, col, ...).
	if p.acceptSym("(") {
		plain := &CreateTablePlain{Name: name, NameParam: nameParam}
		if plain.Cols, err = p.columnList(); err != nil {
			return nil, err
		}
		plain.DistBy, err = p.distributedBy()
		return plain, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTableAs{Name: name, NameParam: nameParam, Select: sel}
	stmt.DistBy, err = p.distributedBy()
	return stmt, err
}

// distributedBy parses an optional DISTRIBUTED BY (col) clause, returning
// "" when there is none.
func (p *parser) distributedBy() (string, error) {
	if !p.acceptKw("distributed") {
		return "", nil
	}
	if err := p.expectKw("by"); err != nil {
		return "", err
	}
	if err := p.expectSym("("); err != nil {
		return "", err
	}
	col, err := p.ident()
	if err != nil {
		return "", err
	}
	return col, p.expectSym(")")
}

func (p *parser) dropTable() (Statement, error) {
	p.next() // drop
	if p.atKw("component") {
		p.next()
		if err := p.expectKw("index"); err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		name, nameParam, err := p.tableName()
		if err != nil {
			return nil, err
		}
		return &DropComponentIndex{Table: name, TableParam: nameParam}, nil
	}
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	var names []string
	var params []int
	for {
		n, prm, err := p.tableName()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		params = append(params, prm)
		if !p.acceptSym(",") {
			break
		}
	}
	return &DropTable{Names: names, NameParams: params}, nil
}

func (p *parser) alterRename() (Statement, error) {
	p.next() // alter
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	oldName, oldParam, err := p.tableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("rename"); err != nil {
		return nil, err
	}
	if err := p.expectKw("to"); err != nil {
		return nil, err
	}
	newName, newParam, err := p.tableName()
	if err != nil {
		return nil, err
	}
	return &AlterRename{Old: oldName, New: newName, OldParam: oldParam, NewParam: newParam}, nil
}

func (p *parser) insertValues() (Statement, error) {
	p.next() // insert
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, nameParam, err := p.tableName()
	if err != nil {
		return nil, err
	}
	// INSERT INTO t SELECT ... appends a query's result rows.
	if p.atKw("select") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &InsertSelect{Name: name, NameParam: nameParam, Select: sel}, nil
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return &InsertValues{Name: name, NameParam: nameParam, Rows: rows}, nil
}

// deleteFrom parses DELETE FROM name [WHERE expr].
func (p *parser) deleteFrom() (Statement, error) {
	p.next() // delete
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, nameParam, err := p.tableName()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Name: name, NameParam: nameParam}
	if p.acceptKw("where") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// selectStmt parses SELECT blocks chained by UNION ALL, then the ORDER BY
// and LIMIT that apply to the whole chain (stored on its last block).
func (p *parser) selectStmt() (*SelectStmt, error) {
	first, err := p.selectBlock()
	if err != nil {
		return nil, err
	}
	last := first
	defer p.setDepth(p.depth)
	for p.acceptKw("union") {
		if err := p.expectKw("all"); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		if last.UnionAll, err = p.selectBlock(); err != nil {
			return nil, err
		}
		last = last.UnionAll
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.acceptKw("desc") {
				item.Desc = true
			} else {
				p.acceptKw("asc")
			}
			last.OrderBy = append(last.OrderBy, item)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, found %q", t.text)
		}
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		last.Limit = n
	}
	return first, nil
}

// selectBlock parses one SELECT ... [FROM] [WHERE] [GROUP BY] block.
func (p *parser) selectBlock() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	if p.acceptKw("distinct") {
		sel.Distinct = true
	}
	// Select list.
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("from") {
		for {
			fi, err := p.fromItem()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, fi)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("where") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			id, err := p.qualifiedIdent()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, id)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	return sel, nil
}

// selectItem parses "expr", "expr AS alias" or "expr alias".
func (p *parser) selectItem() (SelectItem, error) {
	e, err := p.expression()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("as") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
		return item, nil
	}
	// Implicit alias: a bare identifier that is not a clause keyword.
	t := p.peek()
	if t.kind == tokIdent && !isClauseKeyword(t.text) {
		item.Alias = strings.ToLower(t.text)
		p.next()
	}
	return item, nil
}

// isReservedWord lists keywords that cannot begin an expression, so that
// malformed statements fail at parse time rather than resolving a keyword
// as a column name.
func isReservedWord(s string) bool {
	switch strings.ToLower(s) {
	case "select", "from", "where", "group", "by", "union", "all",
		"distinct", "left", "outer", "inner", "join", "on", "order",
		"having", "as", "distributed", "create", "table", "drop", "alter",
		"rename", "to", "insert", "into", "values", "explain", "limit",
		"asc", "desc", "delete", "is":
		return true
	}
	return false
}

// isClauseKeyword lists the keywords that terminate a select list and
// therefore cannot be implicit aliases.
func isClauseKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "from", "where", "group", "union", "distributed", "left", "right",
		"inner", "join", "on", "order", "having", "as", "limit":
		return true
	}
	return false
}

// fromItem parses a table reference followed by any number of explicit
// joins: "t [AS a] [LEFT [OUTER] JOIN t2 [AS b] ON ( expr )]*", where each
// table may also be a derived table "(select ...) [AS] a".
func (p *parser) fromItem() (FromItem, error) {
	ref, err := p.tableRef()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: ref}
	for {
		var leftOuter bool
		switch {
		case p.atKw("left"):
			p.next()
			p.acceptKw("outer")
			if err := p.expectKw("join"); err != nil {
				return FromItem{}, err
			}
			leftOuter = true
		case p.atKw("inner"):
			p.next()
			if err := p.expectKw("join"); err != nil {
				return FromItem{}, err
			}
		case p.atKw("join"):
			p.next()
		default:
			return fi, nil
		}
		ref, err := p.tableRef()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectKw("on"); err != nil {
			return FromItem{}, err
		}
		on, err := p.expression()
		if err != nil {
			return FromItem{}, err
		}
		fi.Joins = append(fi.Joins, JoinClause{LeftOuter: leftOuter, Table: ref, On: on})
	}
}

// tableRef parses "name [[AS] alias [(col, ...)]]", with a $N parameter
// or a parenthesised SELECT (which must be aliased) in place of the name.
func (p *parser) tableRef() (TableRef, error) {
	var ref TableRef
	var err error
	if p.acceptSym("(") {
		defer p.setDepth(p.depth)
		if err := p.enter(); err != nil {
			return TableRef{}, err
		}
		if ref.Sub, err = p.selectStmt(); err != nil {
			return TableRef{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return TableRef{}, err
		}
	} else if ref.Table, ref.Param, err = p.tableName(); err != nil {
		return TableRef{}, err
	}
	if p.acceptKw("as") {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if t := p.peek(); t.kind == tokIdent && !isFromKeyword(t.text) {
		ref.Alias = strings.ToLower(t.text)
		p.next()
	}
	if ref.Sub != nil && ref.Alias == "" {
		return TableRef{}, p.errf("a subquery in FROM must have an alias")
	}
	if ref.Alias != "" && p.acceptSym("(") {
		ref.Cols, err = p.columnList()
	}
	return ref, err
}

// columnList parses "col, col, ...)" — a column-name list whose opening
// parenthesis the caller consumed.
func (p *parser) columnList() ([]string, error) {
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.acceptSym(",") {
			return cols, p.expectSym(")")
		}
	}
}

// isFromKeyword lists keywords that end a table reference and cannot be
// implicit table aliases.
func isFromKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "left", "right", "inner", "join", "on", "where", "group", "union",
		"distributed", "order", "having", "as", "limit":
		return true
	}
	return false
}

func (p *parser) qualifiedIdent() (*Ident, error) {
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.acceptSym(".") {
		second, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Ident{Qual: first, Name: second}, nil
	}
	return &Ident{Name: first}, nil
}

// Expression grammar, loosest to tightest: OR, AND, comparison, additive,
// primary.
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	defer p.setDepth(p.depth)
	for p.acceptKw("or") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	defer p.setDepth(p.depth)
	for p.acceptKw("and") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

// cmpExpr parses an optional comparison, then an optional IS [NOT] NULL
// test of its result (IS binds looser than comparison, as in PostgreSQL).
func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		}
	}
	if p.acceptKw("is") {
		neg := p.acceptKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		l = &IsNullExpr{Arg: l, Negate: neg}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	defer p.setDepth(p.depth)
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			if err := p.enter(); err != nil {
				return nil, err
			}
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokParam:
		p.next()
		idx, err := p.paramIndex(t)
		if err != nil {
			return nil, err
		}
		return &ParamRef{Index: idx}, nil
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q: %v", t.text, err)
		}
		return &NumLit{Val: v}, nil
	case t.kind == tokSymbol && t.text == "-":
		p.next()
		n := p.peek()
		if n.kind != tokNumber {
			return nil, p.errf("expected number after unary '-', found %q", n.text)
		}
		p.next()
		// Parse as negative to admit math.MinInt64.
		v, err := strconv.ParseInt("-"+n.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number -%q: %v", n.text, err)
		}
		return &NumLit{Val: v}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		defer p.setDepth(p.depth)
		if err := p.enter(); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.isKeyword("null"):
		p.next()
		return &NullLit{}, nil
	case t.kind == tokIdent:
		if isReservedWord(t.text) {
			return nil, p.errf("expected expression, found keyword %q", t.text)
		}
		p.next()
		name := strings.ToLower(t.text)
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			p.next()
			call := &Call{Name: name}
			if p.acceptSym("*") {
				call.Star = true
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptSym(")") {
				return call, nil
			}
			defer p.setDepth(p.depth)
			if err := p.enter(); err != nil {
				return nil, err
			}
			for {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Qualified column?
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &Ident{Qual: name, Name: col}, nil
		}
		return &Ident{Name: name}, nil
	}
	return nil, p.errf("expected expression, found %q", t.text)
}
