package engine

import "fmt"

// Vectorized expression evaluation over chunks, the engine's one
// evaluator. evalRows computes an expression once per chunk instead of
// once per row: column references alias the input column (zero copies),
// arithmetic and comparisons run as tight loops over flat []int64 with
// word-wise null propagation, a function with a column kernel is called
// once per chunk (evalColumnUDF), and only a scalar-only UDF runs a loop
// of calls — with a reused argument buffer, so it allocates per chunk,
// not per row. A value that reads no column (an INSERT … VALUES item) is
// evaluated over the one row with no columns a FROM-less SELECT reads
// (EvalConst).
//
// Evaluation is fallible: a malformed plan (an unknown operator smuggled
// into a BinExpr, an Expr type the engine does not know) surfaces as a
// returned error that fails its statement, never as a process-killing
// panic.

// colVec is one evaluated expression column: values plus an optional null
// bitmap (nil = no NULLs), the same layout as a chunk column.
type colVec struct {
	vals  []int64
	nulls nullBitmap
}

// null reports whether row i of the vector is NULL.
func (v colVec) null(i int) bool { return v.nulls.get(i) }

// datum materialises row i as a Datum.
func (v colVec) datum(i int) Datum {
	if v.nulls.get(i) {
		return NullDatum
	}
	return Datum{Int: v.vals[i]}
}

// setNull marks row i NULL, allocating the bitmap lazily.
func (v *colVec) setNull(i, n int) {
	if v.nulls == nil {
		v.nulls = newNullBitmap(n)
	}
	v.nulls.set(i)
}

// orNulls unions two null bitmaps (NULL if either side is NULL) sized for
// n rows; nil in, nil out when both sides are all-valid.
func orNulls(a, b nullBitmap, n int) nullBitmap {
	if a == nil && b == nil {
		return nil
	}
	out := newNullBitmap(n)
	for i := range out {
		var w uint64
		if i < len(a) {
			w |= a[i]
		}
		if i < len(b) {
			w |= b[i]
		}
		out[i] = w
	}
	return out
}

// evalRows is the one evaluator behind the scan pipeline (execPipeline),
// the join pipeline and the group-by's partial chunks: it computes e over
// the rows of ch listed in sel, or over every row when sel is nil, so
// outer filters and projections over an already-filtered chunk compute
// just the surviving rows instead of gathering them into an intermediate
// chunk first. Only the leaves look at the selection — a column reference
// aliases the input column (no selection) or gathers the selected rows;
// every operator above them combines dense operand vectors, so the
// selected form costs the same per row as the full one.
//
// Every vector it computes is taken from a (fresh when a is nil) and has
// each of its n values written; a column reference without a selection
// aliases its input column instead.
func evalRows(e Expr, ch *Chunk, sel []int32, a *arena) (colVec, error) {
	n := len(sel)
	if sel == nil {
		n = ch.length
	}
	switch e := e.(type) {
	case ColRef:
		if e.Idx < 0 || e.Idx >= len(ch.cols) {
			return colVec{}, fmt.Errorf("engine: column %s out of range for %d columns", e, len(ch.cols))
		}
		src, nb := ch.cols[e.Idx], ch.nulls[e.Idx]
		if sel == nil {
			return colVec{vals: src, nulls: nb}, nil
		}
		out := colVec{vals: a.alloc(n)}
		if nb == nil {
			for i, r := range sel {
				out.vals[i] = src[r]
			}
			return out, nil
		}
		for i, r := range sel {
			v := src[r]
			if nb.get(int(r)) {
				v = 0
				out.setNull(i, n)
			}
			out.vals[i] = v
		}
		return out, nil

	case ConstExpr:
		return constVec(e.Val, n, a), nil

	case BinExpr:
		l, err := evalRows(e.Left, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		r, err := evalRows(e.Right, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		return combineBinVec(e.Op, l, r, n, a)

	case IsNullExpr:
		arg, err := evalRows(e.Arg, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: a.alloc(n)}
		for i := 0; i < n; i++ {
			out.vals[i] = b2i(arg.null(i) != e.Negate)
		}
		return out, nil

	case CoalesceExpr:
		args, err := evalArgVecs(e.Args, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: a.alloc(n)}
		for i := 0; i < n; i++ {
			hit := false
			for _, arg := range args {
				if !arg.null(i) {
					out.vals[i] = arg.vals[i]
					hit = true
					break
				}
			}
			if !hit {
				out.vals[i] = 0
				out.setNull(i, n)
			}
		}
		return out, nil

	case LeastExpr:
		args, err := evalArgVecs(e.Args, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: a.alloc(n)}
		for i := 0; i < n; i++ {
			hit := false
			var best int64
			for _, arg := range args {
				if arg.null(i) {
					continue
				}
				if v := arg.vals[i]; !hit || v < best {
					best, hit = v, true
				}
			}
			out.vals[i] = best // zero under a NULL
			if !hit {
				out.setNull(i, n)
			}
		}
		return out, nil

	case UDFExpr:
		if e.Col != nil {
			return evalColumnUDF(e, ch, sel, n, a)
		}
		// Scalar-only function: one call per row through a reused argument
		// buffer.
		args, err := evalArgVecs(e.Args, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		argBuf := make([]Datum, len(args))
		out := colVec{vals: a.alloc(n)}
		for i := 0; i < n; i++ {
			for j := range args {
				argBuf[j] = args[j].datum(i)
			}
			d := e.Fn(argBuf)
			if d.Null {
				out.vals[i] = 0
				out.setNull(i, n)
			} else {
				out.vals[i] = d.Int
			}
		}
		return out, nil

	default:
		return colVec{}, fmt.Errorf("engine: cannot evaluate expression %s of type %T", e, e)
	}
}

// EvalConst evaluates an expression that reads no column over the one row
// with no columns a FROM-less SELECT reads.
func EvalConst(e Expr) (Datum, error) {
	v, err := evalRows(e, newChunk(0, 1), nil, nil)
	if err != nil {
		return Datum{}, err
	}
	return v.datum(0), nil
}

// constVec is a literal as an n-row vector taken from a.
func constVec(d Datum, n int, a *arena) colVec {
	if d.Null {
		nb := newNullBitmap(n)
		for i := range nb {
			nb[i] = ^uint64(0)
		}
		return colVec{vals: a.zeroed(n), nulls: nb}
	}
	if d.Int == 0 {
		return colVec{vals: a.zeroed(n)}
	}
	vals := a.alloc(n)
	for i := range vals {
		vals[i] = d.Int
	}
	return colVec{vals: vals}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// evalArgVecs evaluates an argument list.
func evalArgVecs(args []Expr, ch *Chunk, sel []int32, a *arena) ([]colVec, error) {
	out := make([]colVec, len(args))
	for i, arg := range args {
		v, err := evalRows(arg, ch, sel, a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalColumnUDF evaluates a call to a function that has a column kernel:
// one call for the whole chunk (or selection) instead of one per row.
// Literal arguments reach the kernel as scalars, every other argument as
// its evaluated vector. The kernel contract is strict, so the engine owns
// NULL handling: the result's null bitmap is the union of the argument
// bitmaps, a NULL literal makes the whole column NULL without a call, and
// the payload under every NULL is zeroed like in any other chunk column.
func evalColumnUDF(e UDFExpr, ch *Chunk, sel []int32, n int, a *arena) (colVec, error) {
	args := make([]UDFArg, len(e.Args))
	var nulls nullBitmap
	nullConst := false
	for i, arg := range e.Args {
		if c, ok := arg.(ConstExpr); ok {
			nullConst = nullConst || c.Val.Null
			args[i].Const = c.Val.Int
			continue
		}
		v, err := evalRows(arg, ch, sel, a)
		if err != nil {
			return colVec{}, err
		}
		args[i].Col = v.vals
		if nulls == nil {
			nulls = v.nulls // vectors are immutable: alias until a second bitmap needs a union
		} else if v.nulls != nil {
			nulls = orNulls(nulls, v.nulls, n)
		}
	}
	if nullConst {
		return constVec(NullDatum, n, a), nil
	}
	out := colVec{vals: a.alloc(n), nulls: nulls}
	if n == 0 {
		return out, nil // an empty chunk's columns are nil, which UDFArg reads as a constant
	}
	e.Col(out.vals, args)
	if nulls != nil {
		for i := range out.vals {
			if nulls.get(i) {
				out.vals[i] = 0
			}
		}
	}
	return out, nil
}

// combineBinVec combines two evaluated operand vectors of length n under a
// binary operator. Comparisons and arithmetic propagate NULL by bitmap
// union; AND/OR run a scalar loop for SQL's three-valued logic.
func combineBinVec(op BinOp, l, r colVec, n int, a *arena) (colVec, error) {
	out := colVec{vals: a.alloc(n)}

	switch op {
	case OpAnd:
		for i := 0; i < n; i++ {
			ln, rn := l.null(i), r.null(i)
			var v int64
			switch {
			case !ln && l.vals[i] == 0 || !rn && r.vals[i] == 0:
				// false AND anything = false
			case ln || rn:
				out.setNull(i, n)
			default:
				v = 1
			}
			out.vals[i] = v
		}
		return out, nil
	case OpOr:
		for i := 0; i < n; i++ {
			ln, rn := l.null(i), r.null(i)
			var v int64
			switch {
			case !ln && l.vals[i] != 0 || !rn && r.vals[i] != 0:
				v = 1
			case ln || rn:
				out.setNull(i, n)
			}
			out.vals[i] = v
		}
		return out, nil
	}

	out.nulls = orNulls(l.nulls, r.nulls, n)
	lv, rv, ov := l.vals, r.vals, out.vals
	switch op {
	case OpAdd:
		for i := 0; i < n; i++ {
			ov[i] = lv[i] + rv[i]
		}
	case OpSub:
		for i := 0; i < n; i++ {
			ov[i] = lv[i] - rv[i]
		}
	case OpEq:
		for i := 0; i < n; i++ {
			ov[i] = b2i(lv[i] == rv[i])
		}
	case OpNe:
		for i := 0; i < n; i++ {
			ov[i] = b2i(lv[i] != rv[i])
		}
	case OpLt:
		for i := 0; i < n; i++ {
			ov[i] = b2i(lv[i] < rv[i])
		}
	case OpLe:
		for i := 0; i < n; i++ {
			ov[i] = b2i(lv[i] <= rv[i])
		}
	case OpGt:
		for i := 0; i < n; i++ {
			ov[i] = b2i(lv[i] > rv[i])
		}
	case OpGe:
		for i := 0; i < n; i++ {
			ov[i] = b2i(lv[i] >= rv[i])
		}
	default:
		return colVec{}, fmt.Errorf("engine: unknown binary operator %d in vectorized eval", op)
	}
	return out, nil
}

// selectCompare is the one-pass form of a filter whose predicate compares
// a column with a column or a non-NULL literal, SQL's commonest WHERE: it
// writes to kept (capacity at least the selection's length) the rows of ch
// that sel lists, or of every row when sel is nil, on which the comparison
// is true, without evaluating the predicate into a vector first. kept may
// be sel's own backing array. ok is false for any other predicate, which
// the caller evaluates with evalRows.
func selectCompare(e Expr, ch *Chunk, sel, kept []int32) (out []int32, ok bool) {
	b, isBin := e.(BinExpr)
	if !isBin || b.Op > OpGe {
		return nil, false
	}
	op, left, right := b.Op, b.Left, b.Right
	if _, isCol := left.(ColRef); !isCol {
		// literal op column: compare the column the other way round.
		op, left, right = [...]BinOp{OpEq, OpNe, OpGt, OpGe, OpLt, OpLe}[op], right, left
	}
	col := func(e Expr) ([]int64, nullBitmap, bool) {
		ref, isCol := e.(ColRef)
		if !isCol || ref.Idx < 0 || ref.Idx >= len(ch.cols) {
			return nil, nil, false
		}
		return ch.cols[ref.Idx], ch.nulls[ref.Idx], true
	}
	x, xn, ok := col(left)
	if !ok {
		return nil, false
	}
	y, yn, isCol := col(right)
	var lit int64
	if !isCol {
		c, isConst := right.(ConstExpr)
		if !isConst || c.Val.Null {
			return nil, false
		}
		lit = c.Val.Int
	}
	n := ch.length
	if sel != nil {
		n = len(sel)
	}
	kept = kept[:n]
	j := 0
	for i := 0; i < n; i++ {
		row := i
		if sel != nil {
			row = int(sel[i])
		}
		v := lit
		if isCol {
			v = y[row]
		}
		kept[j] = int32(row)
		if op.holds(x[row], v) && !xn.get(row) && !yn.get(row) {
			j++
		}
	}
	return kept[:j], true
}

// holds reports whether the comparison op holds between x and y.
func (op BinOp) holds(x, y int64) bool {
	switch op {
	case OpEq:
		return x == y
	case OpNe:
		return x != y
	case OpLt:
		return x < y
	case OpLe:
		return x <= y
	case OpGt:
		return x > y
	}
	return x >= y
}

// chunkFromVecs assembles evaluated columns into a chunk; column slices
// are aliased, not copied (chunks and vectors are immutable).
func chunkFromVecs(vecs []colVec, n int) *Chunk {
	ch := &Chunk{
		length: n,
		cols:   make([][]int64, len(vecs)),
		nulls:  make([]nullBitmap, len(vecs)),
	}
	for i, v := range vecs {
		ch.cols[i] = v.vals
		ch.nulls[i] = v.nulls
	}
	return ch
}
