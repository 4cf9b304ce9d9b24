// Command ccsql is a minimal interactive SQL shell over the embedded MPP
// engine, demonstrating the SQL substrate stand-alone. The paper's
// user-defined functions (axplusb, axbp, enc, hrand) are pre-registered,
// so the queries of Appendix A can be typed directly.
//
// CONNECTED COMPONENTS OF TABLE [USING ALGO] [SEED N]; runs a
// connected-components driver on a resident edge table (default ALGO is
// rc) and prints its components, rounds and vertices.
//
// Meta-commands: \d lists tables, \stats prints engine counters
// (including the plan-cache line), \load NAME FILE bulk-loads an edge list,
// \prepare NAME SQL parses a $N statement once under a shell-local
// name, \bind NAME ARG... executes it with bound arguments (integers,
// "null", or bare words as table names), \timing toggles per-statement
// elapsed-time reporting, \trace [N] prints the last N records of the
// cluster's query-trace ring, \q quits.
//
// The chaos flags -fault-rate, -fault-seed and -timeout enable the
// engine's deterministic fault injection and per-statement deadline;
// \stats then also reports the retry/fault/cancellation totals.
//
// -mem-budget BYTES bounds each statement's working memory: joins,
// aggregations and sorts spill partitions to temporary files once their
// hash tables and sort state would exceed the per-segment share, with
// bit-identical results. \stats then reports the peak accounted working
// memory and the spill volume.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dbcc"
	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

func main() {
	var cfg dbcc.Config
	cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	db := dbcc.Open(cfg)
	defer db.Close()
	sess := db.SQL()
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)

	fmt.Printf("dbcc SQL shell — %d segments. End statements with ';', \\q to quit.\n",
		db.Cluster().Segments())
	var buf strings.Builder
	prompt := "sql> "
	timing := false
	prepared := make(map[string]*sql.Prepared)
	for {
		fmt.Print(prompt)
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if buf.Len() == 0 && strings.HasPrefix(line, "\\") {
			if meta(db, sess, line, &timing, prepared) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.HasSuffix(line, ";") {
			prompt = "...> "
			continue
		}
		prompt = "sql> "
		stmt := buf.String()
		buf.Reset()
		start := time.Now()
		execute(db, sess, stmt)
		if timing {
			fmt.Printf("Time: %.3f ms\n", float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
}

// execute runs one statement, printing rows for SELECT and CONNECTED
// COMPONENTS OF, plans for EXPLAIN, and row counts for everything else.
func execute(db *dbcc.DB, sess interface {
	Query(string) (engine.Schema, []engine.Row, error)
	Exec(string) (int64, error)
	Explain(string) (string, error)
}, stmt string) {
	trimmed := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	if trimmed == "" {
		return
	}
	lower := strings.ToLower(trimmed)
	if strings.HasPrefix(lower, "explain") {
		plan, err := sess.Explain(trimmed)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(plan)
		return
	}
	if strings.HasPrefix(lower, "select") || strings.HasPrefix(lower, "connected") {
		schema, rows, err := sess.Query(trimmed)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(strings.Join(schema, "\t"))
		const maxShow = 50
		for i, row := range rows {
			if i == maxShow {
				fmt.Printf("... (%d more rows)\n", len(rows)-maxShow)
				break
			}
			parts := make([]string, len(row))
			for j, d := range row {
				if d.Null {
					parts[j] = "NULL"
				} else {
					parts[j] = fmt.Sprintf("%d", d.Int)
				}
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
		fmt.Printf("(%d rows)\n", len(rows))
		return
	}
	n, err := sess.Exec(trimmed)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ok (%d rows)\n", n)
}

// meta handles backslash commands; it returns true on quit.
func meta(db *dbcc.DB, sess *sql.Session, line string, timing *bool, prepared map[string]*sql.Prepared) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\timing":
		*timing = !*timing
		if *timing {
			fmt.Println("Timing is on.")
		} else {
			fmt.Println("Timing is off.")
		}
	case "\\trace":
		n := 10
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				fmt.Println("usage: \\trace [N]")
				return false
			}
			n = v
		}
		printTrace(db.Cluster(), n)
	case "\\d":
		for _, name := range db.Cluster().TableNames() {
			t, _ := db.Cluster().Table(name)
			fmt.Printf("%-24s (%s)  %d rows\n", name, strings.Join(t.Schema, ", "), t.Rows())
		}
	case "\\stats":
		s := db.Cluster().Stats()
		fmt.Printf("queries=%d rowsWritten=%d written=%.2fMiB live=%.2fMiB peak=%.2fMiB shuffled=%.2fMiB\n",
			s.Queries, s.RowsWritten, float64(s.BytesWritten)/(1<<20),
			float64(s.LiveBytes)/(1<<20), float64(s.PeakBytes)/(1<<20),
			float64(s.ShuffleBytes)/(1<<20))
		if s.TaskRetries > 0 || s.TaskFaults > 0 || s.TaskCancelled > 0 {
			fmt.Printf("retries=%d faults=%d cancelled=%d\n", s.TaskRetries, s.TaskFaults, s.TaskCancelled)
		}
		if s.SpilledBytes > 0 || s.PeakWorkBytes > 0 {
			fmt.Printf("peakWork=%.2fMiB spilled=%.2fMiB spillParts=%d spillPasses=%d\n",
				float64(s.PeakWorkBytes)/(1<<20), float64(s.SpilledBytes)/(1<<20),
				s.SpillPartitions, s.SpillPasses)
		}
		fmt.Printf("planCache: hits=%d misses=%d invalidations=%d entries=%d parses=%d\n",
			s.PlanCacheHits, s.PlanCacheMisses, s.PlanCacheInvalidations,
			db.Cluster().PlanCacheLen(), s.Parses)
	case "\\prepare":
		if len(fields) < 3 {
			fmt.Println("usage: \\prepare NAME SQL")
			return false
		}
		name := fields[1]
		src := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, fields[0]), " "+name))
		p, err := sess.Prepare(strings.TrimSuffix(src, ";"))
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		prepared[name] = p
		fmt.Printf("prepared %s: %d parameter(s)\n", name, p.NumParams())
	case "\\bind":
		if len(fields) < 2 {
			fmt.Println("usage: \\bind NAME [ARG...]  (integers, null, or table names)")
			return false
		}
		p, ok := prepared[fields[1]]
		if !ok {
			fmt.Printf("no prepared statement %q (use \\prepare)\n", fields[1])
			return false
		}
		args := make([]sql.Arg, 0, len(fields)-2)
		for i, raw := range fields[2:] {
			switch {
			case strings.EqualFold(raw, "null"):
				args = append(args, sql.Null())
			default:
				if v, err := strconv.ParseInt(raw, 10, 64); err == nil && !p.ParamIsTable(i+1) {
					args = append(args, sql.Int(v))
				} else {
					args = append(args, sql.Table(raw))
				}
			}
		}
		runPrepared(p, args)
	case "\\load":
		if len(fields) != 3 {
			fmt.Println("usage: \\load TABLENAME FILE")
			return false
		}
		f, err := os.Open(fields[2])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		g, err := dbcc.ReadGraph(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := db.LoadGraph(fields[1], g); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("loaded %d edges into %s(v1, v2)\n", g.NumEdges(), fields[1])
	default:
		fmt.Println("meta commands: \\d  \\stats  \\load NAME FILE  \\prepare NAME SQL  \\bind NAME ARG...  \\timing  \\trace [N]  \\q")
		fmt.Println("connected components: CONNECTED COMPONENTS OF TABLE [USING rc|hm|tp|cr|bfs|lc|ld|auto] [SEED N];")
	}
	return false
}

// runPrepared executes a bound prepared statement, printing rows for a
// SELECT and a row count otherwise.
func runPrepared(p *sql.Prepared, args []sql.Arg) {
	if p.IsQuery() {
		schema, rows, err := p.Query(args...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(strings.Join(schema, "\t"))
		const maxShow = 50
		for i, row := range rows {
			if i == maxShow {
				fmt.Printf("... (%d more rows)\n", len(rows)-maxShow)
				break
			}
			parts := make([]string, len(row))
			for j, d := range row {
				if d.Null {
					parts[j] = "NULL"
				} else {
					parts[j] = fmt.Sprintf("%d", d.Int)
				}
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
		fmt.Printf("(%d rows)\n", len(rows))
		return
	}
	n, err := p.Exec(args...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ok (%d rows)\n", n)
}

// printTrace prints the newest n records of the cluster's query-trace
// ring, oldest first.
func printTrace(c *engine.Cluster, n int) {
	recs := c.Trace()
	if len(recs) == 0 {
		fmt.Println("trace is empty")
		return
	}
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	for _, r := range recs {
		target := ""
		if r.Target != "" {
			target = " -> " + r.Target
		}
		fmt.Printf("#%-4d %-7s %8.3fms rows=%-8d bytes=%-10d shuffle=%-10d %s%s\n",
			r.Seq, r.Kind, float64(r.Elapsed.Nanoseconds())/1e6,
			r.Rows, r.Bytes, r.Shuffle, r.Plan, target)
	}
}
