package engine

import "fmt"

// Vectorized expression evaluation over chunks. evalVec computes an
// expression once per chunk instead of once per row: column references
// alias the input column (zero copies), arithmetic and comparisons run as
// tight loops over flat []int64 with word-wise null propagation, a function
// with a column kernel is called once per chunk (evalColumnUDF), and only
// genuinely row-oriented expressions (scalar-only UDFs, unknown Expr
// implementations) fall back to a scalar loop — with a reused argument
// buffer, so even the fallback allocates per chunk, not per row.
//
// Evaluation is fallible: a malformed plan (an unknown operator smuggled
// into a BinExpr) surfaces as a returned error that fails its query, never
// as a process-killing panic.

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

// evalVec evaluates e over every row of ch.
func evalVec(e Expr, ch *Chunk) (colVec, error) { return evalRows(e, ch, nil) }

// evalVecSel evaluates e over only the selected rows of ch, producing a
// dense vector of len(sel) values: output row i corresponds to input row
// sel[i], and evalVecSel(e, ch, sel) row i equals evalVec(e, ch) row
// sel[i] exactly (values, NULLs and errors). Unlike evalRows, whose nil
// selection means every row, a nil sel here selects none.
func evalVecSel(e Expr, ch *Chunk, sel []int32) (colVec, error) {
	if sel == nil {
		sel = []int32{}
	}
	return evalRows(e, ch, sel)
}

// evalRows is the one evaluator behind evalVec, evalVecSel and the scan
// pipeline (execPipeline): it computes e over the rows of ch listed in sel,
// or over every row when sel is nil, so outer filters and projections over
// an already-filtered chunk compute just the surviving rows instead of
// gathering them into an intermediate chunk first. Only the leaves look at
// the selection — a column reference aliases the
// input column (no selection) or gathers the selected rows; every operator
// above them combines dense operand vectors, so the selected form costs
// the same per row as the full one.
func evalRows(e Expr, ch *Chunk, sel []int32) (colVec, error) {
	n := len(sel)
	if sel == nil {
		n = ch.length
	}
	switch e := e.(type) {
	case ColRef:
		src, nb := ch.cols[e.Idx], ch.nulls[e.Idx]
		if sel == nil {
			return colVec{vals: src, nulls: nb}, nil
		}
		out := colVec{vals: make([]int64, n)}
		if nb == nil {
			for i, r := range sel {
				out.vals[i] = src[r]
			}
			return out, nil
		}
		for i, r := range sel {
			if nb.get(int(r)) {
				out.setNull(i, n)
			} else {
				out.vals[i] = src[r]
			}
		}
		return out, nil

	case ConstExpr:
		return constVec(e.Val, n), nil

	case BinExpr:
		l, err := evalRows(e.Left, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		r, err := evalRows(e.Right, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		return combineBinVec(e.Op, l, r, n)

	case IsNullExpr:
		arg, err := evalRows(e.Arg, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			if arg.null(i) != e.Negate {
				out.vals[i] = 1
			}
		}
		return out, nil

	case CoalesceExpr:
		args, err := evalArgVecs(e.Args, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			hit := false
			for _, a := range args {
				if !a.null(i) {
					out.vals[i] = a.vals[i]
					hit = true
					break
				}
			}
			if !hit {
				out.setNull(i, n)
			}
		}
		return out, nil

	case LeastExpr:
		args, err := evalArgVecs(e.Args, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			hit := false
			var best int64
			for _, a := range args {
				if a.null(i) {
					continue
				}
				if v := a.vals[i]; !hit || v < best {
					best, hit = v, true
				}
			}
			if hit {
				out.vals[i] = best
			} else {
				out.setNull(i, n)
			}
		}
		return out, nil

	case UDFExpr:
		if e.Col != nil {
			return evalColumnUDF(e, ch, sel, n)
		}
		// Scalar-only function: one call per row through a reused argument
		// buffer.
		args, err := evalArgVecs(e.Args, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		argBuf := make([]Datum, len(args))
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			for j := range args {
				argBuf[j] = args[j].datum(i)
			}
			d := e.Fn(argBuf)
			if d.Null {
				out.setNull(i, n)
			} else {
				out.vals[i] = d.Int
			}
		}
		return out, nil

	default:
		// Unknown Expr implementation: reconstruct each row into a scratch
		// buffer and evaluate the row-oriented interface.
		scratch := make(Row, len(ch.cols))
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			for c := range scratch {
				scratch[c] = ch.datum(c, r)
			}
			d := e.Eval(scratch)
			if d.Null {
				out.setNull(i, n)
			} else {
				out.vals[i] = d.Int
			}
		}
		return out, nil
	}
}

// constVec is a literal as an n-row vector.
func constVec(d Datum, n int) colVec {
	vals := make([]int64, n)
	if d.Null {
		nb := newNullBitmap(n)
		for i := range nb {
			nb[i] = ^uint64(0)
		}
		return colVec{vals: vals, nulls: nb}
	}
	if d.Int != 0 {
		for i := range vals {
			vals[i] = d.Int
		}
	}
	return colVec{vals: vals}
}

// evalArgVecs evaluates an argument list.
func evalArgVecs(args []Expr, ch *Chunk, sel []int32) ([]colVec, error) {
	out := make([]colVec, len(args))
	for i, a := range args {
		v, err := evalRows(a, ch, sel)
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
func evalColumnUDF(e UDFExpr, ch *Chunk, sel []int32, n int) (colVec, error) {
	args := make([]UDFArg, len(e.Args))
	var nulls nullBitmap
	nullConst := false
	for i, a := range e.Args {
		if c, ok := a.(ConstExpr); ok {
			nullConst = nullConst || c.Val.Null
			args[i].Const = c.Val.Int
			continue
		}
		v, err := evalRows(a, ch, sel)
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
		return constVec(NullDatum, n), nil
	}
	out := colVec{vals: make([]int64, n), nulls: nulls}
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
// union; AND/OR run a scalar loop for SQL's three-valued logic, mirroring
// BinExpr.Eval exactly.
func combineBinVec(op BinOp, l, r colVec, n int) (colVec, error) {
	out := colVec{vals: make([]int64, n)}

	switch op {
	case OpAnd:
		for i := 0; i < n; i++ {
			ln, rn := l.null(i), r.null(i)
			switch {
			case !ln && l.vals[i] == 0 || !rn && r.vals[i] == 0:
				// false AND anything = false
			case ln || rn:
				out.setNull(i, n)
			default:
				out.vals[i] = 1
			}
		}
		return out, nil
	case OpOr:
		for i := 0; i < n; i++ {
			ln, rn := l.null(i), r.null(i)
			switch {
			case !ln && l.vals[i] != 0 || !rn && r.vals[i] != 0:
				out.vals[i] = 1
			case ln || rn:
				out.setNull(i, n)
			}
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
			if lv[i] == rv[i] {
				ov[i] = 1
			}
		}
	case OpNe:
		for i := 0; i < n; i++ {
			if lv[i] != rv[i] {
				ov[i] = 1
			}
		}
	case OpLt:
		for i := 0; i < n; i++ {
			if lv[i] < rv[i] {
				ov[i] = 1
			}
		}
	case OpLe:
		for i := 0; i < n; i++ {
			if lv[i] <= rv[i] {
				ov[i] = 1
			}
		}
	case OpGt:
		for i := 0; i < n; i++ {
			if lv[i] > rv[i] {
				ov[i] = 1
			}
		}
	case OpGe:
		for i := 0; i < n; i++ {
			if lv[i] >= rv[i] {
				ov[i] = 1
			}
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
