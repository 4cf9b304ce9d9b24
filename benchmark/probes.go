package main

import (
	"fmt"
	"strings"
	"time"

	"dbcc"
	"dbcc/internal/engine"
	"dbcc/internal/sql"
	"dbcc/internal/wire"
)

// Probes time one layer's public functions directly, on a traced run after
// the window, so a layer metric derived from spans (engine.join_s, say)
// has a number beside it that nothing else in the workload can move.

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 5

// probeMedian times fn probeReps times and returns the median seconds.
// fn times its own measured part, so clean-up stays outside.
func probeMedian(fn func() (time.Duration, error)) (float64, error) {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

// engineProbes runs single-operator plans over the resident edge table
// through the engine's public entry points and reports input rows per
// second, in millions.
func engineProbes(w *window, cl *engine.Cluster, table string) error {
	rows, err := cl.ReadAll(table)
	if err != nil {
		return err
	}
	const scratch, keys = "probe_out", "probe_keys"
	// The join probe's build side: one row per distinct v1.
	if _, err := cl.CreateTableAs(keys, engine.GroupBy(engine.Scan(table), []int{0}), 0); err != nil {
		return err
	}
	defer cl.DropTable(keys)
	ctas := func(p engine.Plan, distKey int) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			t0 := time.Now()
			_, err := cl.CreateTableAs(scratch, p, distKey)
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			return d, cl.DropTable(scratch)
		}
	}
	scan := engine.Scan(table)
	probes := []struct {
		name string
		fn   func() (time.Duration, error)
	}{
		// Same distribution key as the table: a pure table → chunk →
		// table round trip, no shuffle.
		{"engine.probe_scan_ctas", ctas(scan, 0)},
		{"engine.probe_redistribute", ctas(scan, 1)},
		{"engine.probe_join", ctas(engine.Join(scan, engine.Scan(keys), 0, 0), 0)},
		{"engine.probe_groupby_min", ctas(engine.GroupBy(scan, []int{0}, engine.Agg{Op: engine.AggMin, Arg: engine.Col(1), Name: "m"}), 0)},
		{"engine.probe_distinct", ctas(engine.Distinct(scan), 0)},
		{"engine.probe_sort", func() (time.Duration, error) {
			t0 := time.Now()
			_, _, err := cl.Query(engine.Sort(scan, []engine.SortKey{{Col: 1}, {Col: 0}}, -1))
			return time.Since(t0), err
		}},
		{"engine.probe_readall", func() (time.Duration, error) {
			t0 := time.Now()
			_, err := cl.ReadAll(table)
			return time.Since(t0), err
		}},
		{"engine.probe_insert_rows", func() (time.Duration, error) {
			if _, err := cl.CreateTable(scratch, engine.Schema{"v1", "v2"}, 0); err != nil {
				return 0, err
			}
			t0 := time.Now()
			err := cl.InsertRows(scratch, rows)
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			return d, cl.DropTable(scratch)
		}},
	}
	for _, p := range probes {
		secs, err := probeMedian(p.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		w.once[p.name] = float64(len(rows)) / 1e6 / secs
	}
	return nil
}

// The round statements of the paper's Appendix A, as internal/ccalg issues
// them (copied: they are unexported there). $1 is the CREATE TABLE AS
// target, the other table parameters the round's inputs.
var appendixA = []struct {
	src  string
	args []string // tables bound to $2…
}{
	{`create table $1 as
		select v1, v2 from $2 as e
		union all
		select v2, v1 from $2 as e2
		distributed by (v1)`, []string{"probe_g"}},
	{`create table $1 as
		select r1.rep as v1, g.v2 as v2
		from $2 as g, $3 as r1
		where g.v1 = r1.v
		distributed by (v2)`, []string{"probe_g", "probe_r"}},
	{`create table $1 as
		select distinct g2.v1 as v1, r2.rep as v2
		from $2 as g2, $3 as r2
		where g2.v2 = r2.v and g2.v1 != r2.rep
		distributed by (v1)`, []string{"probe_g", "probe_r"}},
	{`create table $1 as
		select v, min(h) as mh from $2 as nh group by v
		distributed by (v)`, []string{"probe_nh"}},
	{`create table $1 as
		select nh.v as v, min(nh.w) as rep
		from $2 as nh, $3 as mh
		where nh.v = mh.v and nh.h = mh.mh
		group by nh.v
		distributed by (v)`, []string{"probe_nh", "probe_mh"}},
}

// sqlProbeRows is the size of the tables the SQL probes run on: small
// enough that execution is all fixed cost, like a late RC round.
const sqlProbeRows = 16

// sqlProbeIters is how many passes over appendixA one probe times.
const sqlProbeIters = 40

// sqlProbes times the SQL layer's stages on the Appendix A statements:
// parse, plan, prepare, bind+execute of a prepared handle, and execution
// from text. Microseconds per statement.
func sqlProbes(w *window, db *dbcc.DB) error {
	s := db.SQL()
	cl := db.Cluster()
	var two, three []string
	for i := 0; i < sqlProbeRows; i++ {
		two = append(two, fmt.Sprintf("(%d, %d)", i, (i+1)%sqlProbeRows))
		three = append(three, fmt.Sprintf("(%d, %d, %d)", i, (i+1)%sqlProbeRows, i*7%sqlProbeRows))
	}
	setup := []string{
		"create table probe_g (v1, v2) distributed by (v1)",
		"create table probe_r (v, rep) distributed by (v)",
		"create table probe_nh (v, w, h) distributed by (v)",
		"create table probe_mh (v, mh) distributed by (v)",
		"insert into probe_g values " + strings.Join(two, ", "),
		"insert into probe_r values " + strings.Join(two, ", "),
		"insert into probe_mh values " + strings.Join(two, ", "),
		"insert into probe_nh values " + strings.Join(three, ", "),
	}
	for _, src := range setup {
		if _, err := s.Exec(src); err != nil {
			return fmt.Errorf("sql probe set-up: %w", err)
		}
	}
	const target = "probe_t"
	// literal renders statement i with its table names in place, the text
	// a driver without prepared statements would send.
	literal := func(i int) string {
		src := strings.ReplaceAll(appendixA[i].src, "$1", target)
		for k, t := range appendixA[i].args {
			src = strings.ReplaceAll(src, fmt.Sprintf("$%d", k+2), t)
		}
		return src
	}
	args := func(i int) []sql.Arg {
		a := []sql.Arg{sql.Table(target)}
		for _, t := range appendixA[i].args {
			a = append(a, sql.Table(t))
		}
		return a
	}
	n := float64(len(appendixA) * sqlProbeIters)
	perStmt := func(name string, each func(i int) (time.Duration, error)) error {
		secs, err := probeMedian(func() (time.Duration, error) {
			var total time.Duration
			for it := 0; it < sqlProbeIters; it++ {
				for i := range appendixA {
					d, err := each(i)
					if err != nil {
						return 0, err
					}
					total += d
				}
			}
			return total, nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.once[name] = secs / n * 1e6
		return nil
	}

	texts := make([]string, len(appendixA))
	parsed := make([]*sql.CreateTableAs, len(appendixA))
	prepared := make([]*sql.Prepared, len(appendixA))
	for i := range appendixA {
		texts[i] = literal(i)
		st, err := sql.ParseOne(texts[i])
		if err != nil {
			return err
		}
		parsed[i] = st.(*sql.CreateTableAs)
		if prepared[i], err = s.Prepare(appendixA[i].src); err != nil {
			return err
		}
	}
	if err := perStmt("sql.parse_us", func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := sql.ParseOne(texts[i])
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	if err := perStmt("sql.plan_us", func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, _, err := sql.PlanSelect(cl, parsed[i].Select)
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	if err := perStmt("sql.prepare_us", func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := s.Prepare(appendixA[i].src)
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	if err := perStmt("sql.bind_exec_us", func(i int) (time.Duration, error) {
		t0 := time.Now()
		b, err := prepared[i].Bind(args(i)...)
		if err == nil {
			_, err = s.ExecutePrepared(b)
		}
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, cl.DropTable(target)
	}); err != nil {
		return err
	}
	return perStmt("sql.text_exec_us", func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := s.Exec(texts[i])
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, cl.DropTable(target)
	})
}

// wireProbes times the result codec on the rows the streaming SELECT
// returns: encode and decode per row, and a frame through AppendFrame and
// DecodeFrame.
func wireProbes(w *window, rows []engine.Row) error {
	chunk := wire.Rows{NCols: len(rows[0])}
	for _, r := range rows {
		for _, d := range r {
			chunk.Tags = append(chunk.Tags, 0)
			chunk.Vals = append(chunk.Vals, d.Int)
		}
	}
	const iters = 200
	var payload []byte
	enc, err := probeMedian(func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			payload = wire.EncodeRows(chunk)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	dec, err := probeMedian(func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := wire.DecodeRows(payload); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	var buf []byte
	frame, err := probeMedian(func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			buf = wire.AppendFrame(buf[:0], wire.Frame{Type: wire.TypeRows, Payload: payload})
			if _, _, err := wire.DecodeFrame(buf); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	perRow := float64(iters * len(rows))
	w.once["wire.encode_ns_per_row"] = enc / perRow * 1e9
	w.once["wire.decode_ns_per_row"] = dec / perRow * 1e9
	w.once["wire.frame_roundtrip_ns"] = frame / iters * 1e9
	return nil
}
