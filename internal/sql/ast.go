package sql

import "fmt"

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableAs is CREATE TABLE name AS select [DISTRIBUTED BY (col)].
// NameParam is the $N index when the target name is a prepared-statement
// parameter (Name is then ""); 0 for a literal name.
type CreateTableAs struct {
	Name      string
	NameParam int
	Select    *SelectStmt
	DistBy    string // output column name, or "" for no declared distribution
}

// CreateTablePlain is CREATE TABLE name (col, col, ...) [DISTRIBUTED BY (col)].
type CreateTablePlain struct {
	Name      string
	NameParam int // $N index when the name is a parameter, else 0
	Cols      []string
	DistBy    string
}

// ExplainStmt is EXPLAIN [ANALYZE] select: it plans the query and reports
// the operator tree. With Analyze set the query is also executed and the
// report carries the measured per-operator, per-segment profile.
type ExplainStmt struct {
	Select  *SelectStmt
	Analyze bool
}

// DropTable is DROP TABLE name [, name ...]. NameParams runs parallel to
// Names: entry i is the $N index when name i is a parameter, else 0.
type DropTable struct {
	Names      []string
	NameParams []int
}

// AlterRename is ALTER TABLE old RENAME TO new; the *Param fields are the
// $N indices when the corresponding name is a parameter, else 0.
type AlterRename struct {
	Old, New           string
	OldParam, NewParam int
}

// InsertValues is INSERT INTO name VALUES (...), (...).
type InsertValues struct {
	Name      string
	NameParam int // $N index when the name is a parameter, else 0
	Rows      [][]Expr
}

// InsertSelect is INSERT INTO name SELECT ...: the query's result rows
// are appended to an existing table (whose schema must have the query's
// arity). Like every insert it feeds any component index on the target.
type InsertSelect struct {
	Name      string
	NameParam int // $N index when the name is a parameter, else 0
	Select    *SelectStmt
}

// DeleteStmt is DELETE FROM name [WHERE expr]: rows matching the filter
// (all rows without one) are removed. A component index on the table is
// rebuilt afterwards — deletes can split components, which the
// incremental union-find cannot express.
type DeleteStmt struct {
	Name      string
	NameParam int  // $N index when the name is a parameter, else 0
	Where     Expr // nil = delete every row
}

// CreateComponentIndex is CREATE COMPONENT INDEX ON name: it builds the
// incremental connected-components index over an edge table (first two
// columns are the endpoints) and keeps it maintained under inserts.
type CreateComponentIndex struct {
	Table      string
	TableParam int // $N index when the table name is a parameter, else 0
}

// DropComponentIndex is DROP COMPONENT INDEX ON name.
type DropComponentIndex struct {
	Table      string
	TableParam int
}

// SelectQuery is a bare SELECT executed for its result rows.
type SelectQuery struct{ Select *SelectStmt }

// ConnectedComponents is CONNECTED COMPONENTS OF name [USING alg]
// [SEED expr]: it runs a connected-components driver over an edge table
// and returns one (components, rounds, vertices) row. Using is "rc" when
// the clause is absent; Seed is a constant expression, nil meaning 0.
type ConnectedComponents struct {
	Table      string
	TableParam int
	Using      string
	Seed       Expr
}

func (*CreateTableAs) stmt()        {}
func (*CreateTablePlain) stmt()     {}
func (*ExplainStmt) stmt()          {}
func (*DropTable) stmt()            {}
func (*AlterRename) stmt()          {}
func (*InsertValues) stmt()         {}
func (*InsertSelect) stmt()         {}
func (*DeleteStmt) stmt()           {}
func (*CreateComponentIndex) stmt() {}
func (*DropComponentIndex) stmt()   {}
func (*SelectQuery) stmt()          {}
func (*ConnectedComponents) stmt()  {}

// SelectStmt is one SELECT block; UnionAll chains additional blocks
// (SELECT ... UNION ALL SELECT ...). OrderBy and Limit apply to the whole
// statement (after any UNION ALL), as in standard SQL.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  []*Ident
	UnionAll *SelectStmt
	OrderBy  []OrderItem
	Limit    int64 // -1 = no limit
}

// OrderItem is one ORDER BY key: an output column name with direction.
type OrderItem struct {
	Col  string
	Desc bool
}

// SelectItem is one output column: an expression with an optional alias
// (explicit AS or the implicit "expr name" form the paper uses).
type SelectItem struct {
	Expr  Expr
	Alias string
}

// FromItem is one element of the FROM comma-list: a base table possibly
// extended by explicit JOIN clauses.
type FromItem struct {
	Table TableRef
	Joins []JoinClause
}

// TableRef is one relation of a FROM clause: a stored table, or a derived
// table (Sub, a parenthesised SELECT, which always carries an alias). Param
// is the $N index when the table name is a prepared-statement parameter
// (Table is then ""); parameterised tables need an explicit alias to be
// referenced by qualified column names. Cols, when set, renames the
// relation's columns positionally (the "AS e (v1, v2)" alias list).
type TableRef struct {
	Table string
	Param int
	Sub   *SelectStmt
	Alias string
	Cols  []string
}

// Name returns the alias if present, else the table name (empty for an
// unaliased parameter).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// label names the relation in error messages: its alias or table name,
// or $N for an unaliased table parameter.
func (t TableRef) label() string {
	if t.Name() == "" && t.Param > 0 {
		return fmt.Sprintf("$%d", t.Param)
	}
	return t.Name()
}

// JoinClause is an explicit join hanging off a FromItem.
type JoinClause struct {
	LeftOuter bool
	Table     TableRef
	On        Expr
}

// Expr is a scalar expression AST node.
type Expr interface{ expr() }

// Ident is a possibly qualified column reference (alias.col or col).
type Ident struct {
	Qual string // table alias, or ""
	Name string
}

// NumLit is an integer literal (possibly negative).
type NumLit struct{ Val int64 }

// NullLit is the NULL literal.
type NullLit struct{}

// Call is a function call; Star marks count(*).
type Call struct {
	Name string
	Star bool
	Args []Expr
}

// BinaryExpr applies an infix operator: = != < <= > >= + - AND OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// ParamRef is a $N prepared-statement value parameter (1-based).
type ParamRef struct{ Index int }

// IsNullExpr is "expr IS NULL", or "expr IS NOT NULL" with Negate set.
type IsNullExpr struct {
	Arg    Expr
	Negate bool
}

func (*Ident) expr()      {}
func (*NumLit) expr()     {}
func (*NullLit) expr()    {}
func (*Call) expr()       {}
func (*BinaryExpr) expr() {}
func (*ParamRef) expr()   {}
func (*IsNullExpr) expr() {}
