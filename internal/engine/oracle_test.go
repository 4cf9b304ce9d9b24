package engine

import "fmt"

// evalRow is the row-at-a-time reference evaluator the differential tests
// hold evalRows to: every Expr kind the engine knows, over one row, with
// SQL's NULL semantics written out case by case. It is the test suite's
// oracle only; the engine evaluates a chunk at a time.
func evalRow(e Expr, row Row) Datum {
	switch e := e.(type) {
	case ColRef:
		return row[e.Idx]
	case ConstExpr:
		return e.Val
	case BinExpr:
		return evalBinRow(e, row)
	case LeastExpr:
		// NULL arguments are ignored; NULL only if every argument is.
		out := NullDatum
		for _, a := range e.Args {
			v := evalRow(a, row)
			if !v.Null && (out.Null || v.Int < out.Int) {
				out = v
			}
		}
		return out
	case CoalesceExpr:
		for _, a := range e.Args {
			if v := evalRow(a, row); !v.Null {
				return v
			}
		}
		return NullDatum
	case IsNullExpr:
		return boolDatum(evalRow(e.Arg, row).Null != e.Negate)
	case UDFExpr:
		args := make([]Datum, len(e.Args))
		for i, a := range e.Args {
			args[i] = evalRow(a, row)
		}
		return e.Fn(args)
	}
	panic(fmt.Sprintf("evalRow: no reference for %T", e))
}

// evalBinRow is evalRow of a binary operator: AND/OR by three-valued
// logic, every other operator NULL if either operand is.
func evalBinRow(e BinExpr, row Row) Datum {
	l, r := evalRow(e.Left, row), evalRow(e.Right, row)
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
	switch e.Op {
	case OpEq:
		return boolDatum(l.Int == r.Int)
	case OpNe:
		return boolDatum(l.Int != r.Int)
	case OpLt:
		return boolDatum(l.Int < r.Int)
	case OpLe:
		return boolDatum(l.Int <= r.Int)
	case OpGt:
		return boolDatum(l.Int > r.Int)
	case OpGe:
		return boolDatum(l.Int >= r.Int)
	case OpAdd:
		return I(l.Int + r.Int)
	case OpSub:
		return I(l.Int - r.Int)
	}
	panic(fmt.Sprintf("evalRow: unknown binary operator %d", e.Op))
}

func boolDatum(b bool) Datum {
	if b {
		return I(1)
	}
	return I(0)
}

// truthy reports whether a predicate result keeps the row (SQL WHERE:
// NULL and false both filter out).
func truthy(d Datum) bool { return !d.Null && d.Int != 0 }
