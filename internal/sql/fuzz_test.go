package sql

import (
	"errors"
	"strings"
	"testing"

	"dbcc/internal/engine"
)

// FuzzParse checks the parser never panics and that anything it accepts
// round-trips through a second parse (the seed corpus runs under plain
// `go test`; use `go test -fuzz=FuzzParse ./internal/sql` to explore).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		";",
		"select 1",
		"select v1 v, least(axplusb(3, v1, 4), min(axplusb(3, v2, 4))) rep from g group by v1 distributed by (v)",
		"create table t as select a.x from t1 a left outer join t2 b on (a.x = b.y) where a.x != 3",
		"create table t (a, b) distributed by (b)",
		"insert into t values (1, null), (-2, 3)",
		"drop table a, b; alter table c rename to d",
		"select distinct v1, v2 from e union all select v2, v1 from e order by v1 desc limit 10",
		"explain select count(*) from t",
		"select (((1)))",
		"select 1 from t where a = 1 or b = 2 and c <> 3",
		"select -9223372036854775808 x",
		"create table",
		"select from",
		"select f(g(h(1,2),3),4) from t",
		"select 1 union all",
		"insert into t values (",
		"group by select where",
		"select a..b from t",
		"connected components of g using ld seed 18446744073709551615",
		"connected components of $1 seed $2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must parse deterministically.
		again, err2 := Parse(src)
		if err2 != nil {
			t.Fatalf("second parse failed: %v", err2)
		}
		if len(stmts) != len(again) {
			t.Fatalf("non-deterministic parse: %d vs %d statements", len(stmts), len(again))
		}
		_ = strings.TrimSpace(src)
	})
}

// FuzzPrepare drives the prepared-statement pipeline — Prepare, Bind,
// execute — with arbitrary statement text. Prepare must never panic
// (malformed parameter numbering is a plain error), Bind must reject
// count and kind mismatches as typed *BindError, and executing a
// well-bound handle must fail, if it fails, through an error — never a
// panic, and in particular never an unsubstituted paramExpr reaching the
// engine. Use `go test -fuzz=FuzzPrepare ./internal/sql` to explore.
func FuzzPrepare(f *testing.F) {
	seeds := []string{
		"select count(*) as n from $1 as g",
		"create table $1 as select x.v1 as v1, x.v2 as v2 from $2 as x",
		"insert into $1 values ($2, $3), ($4, $5)",
		"select v1 from e where v1 = $1",
		"drop table $1; alter table $2 rename to $1",
		"select least($1, v1) k from $2 t where t.v1 != $1",
		"select $1 from $1",              // value/table conflict
		"select v1 from e where v1 = $3", // noncontiguous
		"select $0 from e",
		"select $99999999999999999999 from e",
		"insert into $1 values ($2",
		"select count(*) from $1 union all select count(*) from $2",
		"connected components of $1 using rc seed $2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c := engine.NewCluster(engine.Options{Segments: 1})
		defer c.Close()
		if _, err := c.CreateTable("e", engine.Schema{"v1", "v2"}, 0); err != nil {
			t.Fatal(err)
		}
		s := NewSession(c)
		p, err := s.Prepare(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// A bind with the wrong argument count must be a typed *BindError.
		if _, err := p.Bind(make([]Arg, p.NumParams()+1)...); err == nil {
			t.Fatalf("bind accepted %d args for %d params", p.NumParams()+1, p.NumParams())
		} else {
			var be *BindError
			if !errors.As(err, &be) {
				t.Fatalf("count mismatch is %T, want *BindError: %v", err, err)
			}
		}
		// Bind each parameter by its declared kind and execute. Execution
		// errors (missing tables, schema mismatches) are fine; panics and
		// kind-mismatch BindErrors on a well-formed binding are not.
		args := make([]Arg, p.NumParams())
		for i := range args {
			if p.ParamIsTable(i + 1) {
				args[i] = Table("e")
			} else {
				args[i] = Int(int64(i))
			}
		}
		if _, err := p.Exec(args...); err != nil {
			var be *BindError
			if errors.As(err, &be) {
				t.Fatalf("well-kinded binding rejected: %v", err)
			}
		}
	})
}
