package engine

import "fmt"

// Expr is a scalar expression over the columns of an input row. The
// engine knows every implementation and evaluates it a chunk at a time
// (evalRows); the interface only renders it.
type Expr interface {
	// String renders the expression for plan explanations.
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Idx  int
	Name string // for display only
}

func (e ColRef) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("$%d", e.Idx)
}

// Col returns a column reference expression.
func Col(idx int) Expr { return ColRef{Idx: idx} }

// NamedCol returns a column reference carrying a display name.
func NamedCol(idx int, name string) Expr { return ColRef{Idx: idx, Name: name} }

// ConstExpr is a literal value.
type ConstExpr struct{ Val Datum }

func (e ConstExpr) String() string {
	if e.Val.Null {
		return "NULL"
	}
	return fmt.Sprintf("%d", e.Val.Int)
}

// Const returns a non-null integer literal expression.
func Const(v int64) Expr { return ConstExpr{Val: I(v)} }

// Null is the SQL NULL literal expression.
var Null Expr = ConstExpr{Val: NullDatum}

// BinOp identifies a built-in binary operator.
type BinOp int

// Built-in binary operators. Comparisons yield 1/0 and arithmetic wraps
// like int64; either is NULL if an operand is NULL. AND and OR follow SQL's
// three-valued logic: false AND NULL is false, true OR NULL is true, any
// other NULL operand makes them NULL. A WHERE filters unknown as false.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpAnd: "AND", OpOr: "OR",
}

// BinExpr applies a built-in binary operator.
type BinExpr struct {
	Op          BinOp
	Left, Right Expr
}

func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, binOpNames[e.Op], e.Right)
}

// Bin builds a binary operator expression.
func Bin(op BinOp, l, r Expr) Expr { return BinExpr{Op: op, Left: l, Right: r} }

// LeastExpr is SQL least(...): the minimum of its non-NULL arguments,
// NULL only if every argument is NULL (PostgreSQL least semantics),
// matching the semantics the paper's representative query relies on
// ("least(axb(A,v,B), min(axb(A,w,B)))").
type LeastExpr struct{ Args []Expr }

func (e LeastExpr) String() string { return fnString("least", e.Args) }

// Least builds a least(...) expression.
func Least(args ...Expr) Expr { return LeastExpr{Args: args} }

// CoalesceExpr is SQL coalesce(...): the first non-NULL argument.
type CoalesceExpr struct{ Args []Expr }

func (e CoalesceExpr) String() string { return fnString("coalesce", e.Args) }

// Coalesce builds a coalesce(...) expression.
func Coalesce(args ...Expr) Expr { return CoalesceExpr{Args: args} }

// IsNullExpr is SQL "expr IS NULL" (negate for IS NOT NULL): 1 or 0,
// never NULL.
type IsNullExpr struct {
	Arg    Expr
	Negate bool
}

func (e IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Arg)
	}
	return fmt.Sprintf("(%s IS NULL)", e.Arg)
}

// IsNull builds an IS NULL predicate.
func IsNull(arg Expr) Expr { return IsNullExpr{Arg: arg} }

// IsNotNull builds an IS NOT NULL predicate.
func IsNotNull(arg Expr) Expr { return IsNullExpr{Arg: arg, Negate: true} }

// UDFExpr calls a function registered on the cluster, the analogue of the
// paper loading its C axplusb function into HAWQ. Col is the function's
// column kernel, nil for one registered in scalar form only; chunk
// evaluation prefers it (see evalColumnUDF).
type UDFExpr struct {
	Name string
	Fn   UDF
	Col  ColumnUDF
	Args []Expr
}

func (e UDFExpr) String() string { return fnString(e.Name, e.Args) }

// CallUDF builds a call to the named registered function. It returns an
// error if the function is not registered. The returned expression captures
// the function value at build time, so re-registering a UDF never affects
// queries already planned (or executing) in other sessions.
func (c *Cluster) CallUDF(name string, args ...Expr) (Expr, error) {
	c.mu.RLock()
	e, ok := c.udfs[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: function %q is not registered", name)
	}
	return UDFExpr{Name: name, Fn: e.fn, Col: e.col, Args: args}, nil
}

func fnString(name string, args []Expr) string {
	s := name + "("
	for i, a := range args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}
