package sql

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dbcc/internal/engine"
	"dbcc/internal/xrand"
)

// delPred is a random WHERE predicate over the columns a, b, c: its SQL
// text and a Go function computing it on one row with SQL's NULL
// semantics, the test's oracle.
type delPred struct {
	sql  string
	eval func(engine.Row) engine.Datum
}

// delGen draws predicates over small, duplicate-heavy values.
type delGen struct{ rng *xrand.Rand }

func boolDatum(b bool) engine.Datum {
	if b {
		return engine.I(1)
	}
	return engine.I(0)
}

// operand is a column, a literal, NULL, least, coalesce or the column
// UDF inc (x + 1, NULL on NULL).
func (g delGen) operand(depth int) delPred {
	k := g.rng.Uint64n(7)
	if depth == 0 {
		k %= 3
	}
	switch k {
	case 0, 1:
		c := int(g.rng.Uint64n(3))
		return delPred{string(rune('a' + c)), func(r engine.Row) engine.Datum { return r[c] }}
	case 2:
		if g.rng.Uint64n(4) == 0 {
			return delPred{"null", func(engine.Row) engine.Datum { return engine.NullDatum }}
		}
		v := int64(g.rng.Uint64n(5))
		return delPred{fmt.Sprint(v), func(engine.Row) engine.Datum { return engine.I(v) }}
	case 3:
		x, y := g.operand(depth-1), g.operand(depth-1)
		return delPred{"least(" + x.sql + ", " + y.sql + ")", func(r engine.Row) engine.Datum {
			a, b := x.eval(r), y.eval(r)
			switch {
			case a.Null:
				return b
			case b.Null || a.Int <= b.Int:
				return a
			}
			return b
		}}
	case 4:
		x, y := g.operand(depth-1), g.operand(depth-1)
		return delPred{"coalesce(" + x.sql + ", " + y.sql + ")", func(r engine.Row) engine.Datum {
			if a := x.eval(r); !a.Null {
				return a
			}
			return y.eval(r)
		}}
	default:
		x := g.operand(depth - 1)
		return delPred{"inc(" + x.sql + ")", func(r engine.Row) engine.Datum {
			a := x.eval(r)
			if a.Null {
				return a
			}
			return engine.I(a.Int + 1)
		}}
	}
}

// pred is a comparison or an IS [NOT] NULL test, or an AND/OR of two
// predicates.
func (g delGen) pred(depth int) delPred {
	k := g.rng.Uint64n(4)
	if depth == 0 {
		k %= 2
	}
	switch k {
	case 0:
		x, y := g.operand(2), g.operand(2)
		ops := []struct {
			sql string
			f   func(a, b int64) bool
		}{
			{"=", func(a, b int64) bool { return a == b }}, {"!=", func(a, b int64) bool { return a != b }},
			{"<", func(a, b int64) bool { return a < b }}, {"<=", func(a, b int64) bool { return a <= b }},
			{">", func(a, b int64) bool { return a > b }}, {">=", func(a, b int64) bool { return a >= b }},
		}
		op := ops[g.rng.Uint64n(uint64(len(ops)))]
		return delPred{x.sql + " " + op.sql + " " + y.sql, func(r engine.Row) engine.Datum {
			a, b := x.eval(r), y.eval(r)
			if a.Null || b.Null {
				return engine.NullDatum
			}
			return boolDatum(op.f(a.Int, b.Int))
		}}
	case 1:
		x, neg := g.operand(2), g.rng.Uint64n(2) == 0
		text := x.sql + " is null"
		if neg {
			text = x.sql + " is not null"
		}
		return delPred{text, func(r engine.Row) engine.Datum { return boolDatum(x.eval(r).Null != neg) }}
	default:
		l, r := g.pred(depth-1), g.pred(depth-1)
		and := k == 2
		text := "(" + l.sql + ") or (" + r.sql + ")"
		if and {
			text = "(" + l.sql + ") and (" + r.sql + ")"
		}
		return delPred{text, func(row engine.Row) engine.Datum {
			a, b := l.eval(row), r.eval(row)
			// The operand that decides the result: false for AND, true for OR.
			decides := func(d engine.Datum) bool { return !d.Null && (d.Int != 0) != and }
			switch {
			case decides(a) || decides(b):
				return boolDatum(!and)
			case a.Null || b.Null:
				return engine.NullDatum
			}
			return boolDatum(and)
		}}
	}
}

// batch draws n rows over a, b, c with values 0..4 and about one NULL in
// five.
func (g delGen) batch(n int) []engine.Row {
	rows := make([]engine.Row, n)
	for i := range rows {
		row := make(engine.Row, 3)
		for c := range row {
			if g.rng.Uint64n(5) == 0 {
				row[c] = engine.NullDatum
			} else {
				row[c] = engine.I(int64(g.rng.Uint64n(5)))
			}
		}
		rows[i] = row
	}
	return rows
}

// rowKeys renders rows as a sorted multiset.
func rowKeys(rows []engine.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprint(r)
	}
	sort.Strings(keys)
	return keys
}

// deleteCluster is a cluster with the column UDF inc registered.
func deleteCluster(opts engine.Options) *engine.Cluster {
	c := engine.NewCluster(opts)
	c.RegisterColumnUDF("inc", func(out []int64, args []engine.UDFArg) {
		for i := range out {
			out[i] = args[0].At(i) + 1
		}
	})
	return c
}

// runDeletes streams insert batches into a table distributed by a (so each
// segment holds several stored chunks) and runs random DELETEs on it.
// Before each it counts the rows select count(*) … where p returns; the
// DELETE must remove that many, leave the rows the oracle keeps, and
// leave LiveBytes equal to the catalog's bytes. It returns the table's
// final rows.
func runDeletes(t *testing.T, c *engine.Cluster, seed uint64) []engine.Row {
	t.Helper()
	s := NewSession(c)
	if _, err := s.Exec("create table t (a, b, c) distributed by (a)"); err != nil {
		t.Fatal(err)
	}
	g := delGen{xrand.New(seed)}
	var want []engine.Row
	for i := 0; i < 60; i++ {
		for b := 0; b < 3; b++ {
			rows := g.batch(16)
			if err := c.InsertRows("t", rows); err != nil {
				t.Fatal(err)
			}
			want = append(want, rows...)
		}
		p := g.pred(2)
		_, cnt, err := s.Query("select count(*) as n from t where " + p.sql)
		if err != nil {
			t.Fatalf("count where %s: %v", p.sql, err)
		}
		var n int64 // an aggregate over no rows returns no row
		if len(cnt) > 0 {
			n = cnt[0][0].Int
		}
		removed, err := s.Exec("delete from t where " + p.sql)
		if err != nil {
			t.Fatalf("delete where %s: %v", p.sql, err)
		}
		if removed != n {
			t.Fatalf("delete where %s removed %d rows, select counted %d", p.sql, removed, n)
		}
		kept := want[:0:0]
		for _, r := range want {
			if d := p.eval(r); d.Null || d.Int == 0 {
				kept = append(kept, r)
			}
		}
		want = kept
		got, err := c.ReadAll("t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowKeys(got), rowKeys(want)) {
			t.Fatalf("delete where %s left %d rows, the oracle keeps %d", p.sql, len(got), len(want))
		}
		tab, _ := c.Table("t")
		if live := c.Stats().LiveBytes; live != tab.Bytes() {
			t.Fatalf("after delete where %s: LiveBytes %d, catalog holds %d", p.sql, live, tab.Bytes())
		}
	}
	if _, err := s.Exec("delete from t"); err != nil {
		t.Fatal(err)
	}
	if live := c.Stats().LiveBytes; live != 0 {
		t.Fatalf("delete of every row leaves LiveBytes %d", live)
	}
	return want
}

// TestDeleteMatchesSelect runs random DELETEs — comparisons of columns,
// literals, NULL, least, coalesce and a column UDF, IS [NOT] NULL, AND
// and OR — at 1, 3 and 8 segments: each removes exactly the rows the
// same WHERE selects and keeps the rows the oracle keeps. Under injected
// faults with retries the deletes end in the same table.
func TestDeleteMatchesSelect(t *testing.T) {
	for _, segs := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("segments=%d", segs), func(t *testing.T) {
			c := deleteCluster(engine.Options{Segments: segs})
			defer c.Close()
			want := runDeletes(t, c, uint64(segs))

			faulty := deleteCluster(engine.Options{Segments: segs, Faults: engine.FaultConfig{
				Seed: 44, FailureRate: 0.2, MaxTaskRetries: 12, RetryBackoff: time.Microsecond}})
			defer faulty.Close()
			got := runDeletes(t, faulty, uint64(segs))
			if !reflect.DeepEqual(rowKeys(got), rowKeys(want)) {
				t.Fatalf("under faults the deletes left %d rows, without %d", len(got), len(want))
			}
			if faulty.Stats().TaskRetries == 0 {
				t.Fatal("no task was retried at a 20% failure rate")
			}
		})
	}
}
