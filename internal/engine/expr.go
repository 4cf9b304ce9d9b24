package engine

import "fmt"

// Expr is a scalar expression evaluated against one input row.
type Expr interface {
	// Eval computes the expression over the row.
	Eval(row Row) Datum
	// String renders the expression for plan explanations.
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Idx  int
	Name string // for display only
}

// Eval implements Expr.
func (e ColRef) Eval(row Row) Datum { return row[e.Idx] }

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

// Eval implements Expr.
func (e ConstExpr) Eval(Row) Datum { return e.Val }

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

// Built-in binary operators. Comparisons yield 1/0, or NULL if either
// operand is NULL (SQL three-valued logic, where unknown filters as false).
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

// Eval implements Expr with SQL NULL propagation: any NULL operand makes a
// comparison or arithmetic result NULL, except AND/OR which follow
// three-valued logic far enough for the dialect's needs.
func (e BinExpr) Eval(row Row) Datum {
	l := e.Left.Eval(row)
	r := e.Right.Eval(row)
	switch e.Op {
	case OpAnd:
		if !l.Null && l.Int == 0 || !r.Null && r.Int == 0 {
			return I(0)
		}
		if l.Null || r.Null {
			return NullDatum
		}
		return I(1)
	case OpOr:
		if !l.Null && l.Int != 0 || !r.Null && r.Int != 0 {
			return I(1)
		}
		if l.Null || r.Null {
			return NullDatum
		}
		return I(0)
	}
	if l.Null || r.Null {
		return NullDatum
	}
	b := func(ok bool) Datum {
		if ok {
			return I(1)
		}
		return I(0)
	}
	switch e.Op {
	case OpEq:
		return b(l.Int == r.Int)
	case OpNe:
		return b(l.Int != r.Int)
	case OpLt:
		return b(l.Int < r.Int)
	case OpLe:
		return b(l.Int <= r.Int)
	case OpGt:
		return b(l.Int > r.Int)
	case OpGe:
		return b(l.Int >= r.Int)
	case OpAdd:
		return I(l.Int + r.Int)
	case OpSub:
		return I(l.Int - r.Int)
	}
	// Eval cannot return an error; evalPanic is recovered at the task
	// runner / statement boundary and fails only this query.
	panic(evalPanic{fmt.Errorf("engine: unknown binary operator %d", e.Op)})
}

func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, binOpNames[e.Op], e.Right)
}

// Bin builds a binary operator expression.
func Bin(op BinOp, l, r Expr) Expr { return BinExpr{Op: op, Left: l, Right: r} }

// LeastExpr is SQL least(...): the minimum of its non-NULL arguments,
// matching the semantics the paper's representative query relies on
// ("least(axb(A,v,B), min(axb(A,w,B)))").
type LeastExpr struct{ Args []Expr }

// Eval implements Expr. NULL arguments are ignored; the result is NULL only
// if every argument is NULL (PostgreSQL least semantics).
func (e LeastExpr) Eval(row Row) Datum {
	out := NullDatum
	for _, a := range e.Args {
		v := a.Eval(row)
		if v.Null {
			continue
		}
		if out.Null || v.Int < out.Int {
			out = v
		}
	}
	return out
}

func (e LeastExpr) String() string { return fnString("least", e.Args) }

// Least builds a least(...) expression.
func Least(args ...Expr) Expr { return LeastExpr{Args: args} }

// CoalesceExpr is SQL coalesce(...): the first non-NULL argument.
type CoalesceExpr struct{ Args []Expr }

// Eval implements Expr.
func (e CoalesceExpr) Eval(row Row) Datum {
	for _, a := range e.Args {
		if v := a.Eval(row); !v.Null {
			return v
		}
	}
	return NullDatum
}

func (e CoalesceExpr) String() string { return fnString("coalesce", e.Args) }

// Coalesce builds a coalesce(...) expression.
func Coalesce(args ...Expr) Expr { return CoalesceExpr{Args: args} }

// IsNullExpr is SQL "expr IS NULL" (negate for IS NOT NULL).
type IsNullExpr struct {
	Arg    Expr
	Negate bool
}

// Eval implements Expr.
func (e IsNullExpr) Eval(row Row) Datum {
	isNull := e.Arg.Eval(row).Null
	if e.Negate {
		isNull = !isNull
	}
	if isNull {
		return I(1)
	}
	return I(0)
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

// Eval implements Expr.
func (e UDFExpr) Eval(row Row) Datum {
	args := make([]Datum, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Eval(row)
	}
	return e.Fn(args)
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

// truthy reports whether a predicate result keeps the row (SQL WHERE:
// NULL and false both filter out).
func truthy(d Datum) bool { return !d.Null && d.Int != 0 }
