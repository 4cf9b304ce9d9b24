// Command benchmark is the one instrument every performance claim about
// this repository is judged with: six named workloads, the paper's
// yardsticks as end-to-end metrics, and per-layer attribution measured
// from outside the program. See README.md beside this file.
//
//	bash benchmark/run.sh                        all six workloads, interleaved
//	bash benchmark/run.sh -workload cc_grid      one workload (what the driver runs)
//	bash benchmark/run.sh -trace 1               the per-layer metrics
//	bash benchmark/run.sh -compare A B           two results files, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS: the reference host has 2 cores, and a run on a
// bigger one should still be comparable in shape.
const maxProcs = 4

// benchmarkJSON is the contract file at the root of the checkout, where
// -compare reads the bounds from; the benchmark runs from that root.
const benchmarkJSON = "BENCHMARK.json"

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all (interleaved passes)")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured window per workload")
		trace   = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead")
		out     = flag.String("out", ".bench_build/results.jsonl", "results file to append one record per workload to")
		spans   = flag.String("spans", ".bench_build/spans.jsonl", "file a traced run writes its spans to")
		compare = flag.Bool("compare", false, "compare two results files given as arguments and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	defs := workloads
	if *name != "all" {
		def, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		defs = []workload{def}
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	var tr *tracer
	if *trace != 0 {
		tr = newTracer()
	}
	outs := runWorkloads(defs, runConfig{seed: *seed, seconds: *seconds, scale: 1, setupBudget: time.Second}, tr)

	env := environment()
	total := record{Correct: true, Metrics: map[string]value{}}
	var records []record
	for _, o := range outs {
		rec := newRecord(o, env, *seed, *seconds, tr != nil)
		records = append(records, rec)
		printRecord(rec)
		total.Correct = total.Correct && rec.Correct
		total.Attempted += rec.Attempted
		total.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(outs) > 1 {
				k = rec.Workload + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	if err := appendRecords(*out, records); err != nil {
		fatal(err)
	}
	if tr != nil {
		if err := tr.write(*spans); err != nil {
			fatal(err)
		}
	}
	// The driver reads the last line: exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{total.Correct, max(total.Attempted, 1), total.Failed, stripCounts(total.Metrics)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// stripCounts drops the sample counts, which the driver's format has no
// place for; the results file keeps them.
func stripCounts(in map[string]value) map[string]value {
	out := make(map[string]value, len(in))
	for k, v := range in {
		out[k] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// envInfo is what a results record says about where it was measured.
type envInfo struct {
	Commit      string `json:"commit"`
	Go          string `json:"go"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Segments    int    `json:"segments"`
	Workers     int    `json:"workers"`
	Connections int    `json:"connections"`
}

func environment() envInfo {
	env := envInfo{
		Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		// dbcc.Config{} defaults: 8 segments, one worker per GOMAXPROCS.
		Segments: 8, Workers: runtime.GOMAXPROCS(0), Connections: connections(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

// record is one workload's result in one invocation: a line of the
// results file.
type record struct {
	Workload  string           `json:"workload,omitempty"`
	Trace     bool             `json:"trace"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Time      string           `json:"time,omitempty"`
	Env       envInfo          `json:"env"`
	Input     fingerprint      `json:"input"`
	Reps      int              `json:"reps"`
	TailPct   float64          `json:"tail_percentile,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Error     string           `json:"error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func newRecord(o *outcome, env envInfo, seed uint64, seconds float64, traced bool) record {
	rec := record{
		Workload: o.def.name, Trace: traced, Seed: seed, Seconds: seconds,
		Time: time.Now().UTC().Format(time.RFC3339), Env: env, Reps: o.rep,
	}
	if o.err != nil {
		rec.Error = o.err.Error()
	}
	if o.w == nil { // set-up failed
		rec.Attempted, rec.Failed = 1, 1
		return rec
	}
	rec.Input = o.inst.input()
	rec.Attempted, rec.Failed = o.w.attempted, o.w.failed
	if o.err != nil {
		rec.Failed++
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	if traced {
		rec.Metrics = perLayerValues(o)
	} else {
		rec.Metrics, rec.TailPct = endToEndValues(o)
	}
	return rec
}

func printRecord(rec record) {
	fmt.Printf("%s  seed=%d trace=%v reps=%d attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Reps, rec.Attempted, rec.Failed, rec.Correct)
	if rec.Error != "" {
		fmt.Printf("  ERROR: %s\n", rec.Error)
	}
	fmt.Printf("  input: %d edges, %d vertices, %d components, hash %s\n",
		rec.Input.Edges, rec.Input.Vertices, rec.Input.Components, rec.Input.Hash)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := rec.Metrics[k]
		note := ""
		if k == "op_tail_ms" {
			note = fmt.Sprintf("  (p%g)", rec.TailPct)
		}
		fmt.Printf("  %-38s %16.6g %-9s n=%d%s\n", k, v.Value, v.Unit, v.N, note)
	}
}

// appendRecords appends one JSON line per record; a results file holds any
// number of invocations, which is what -compare takes quartiles over.
func appendRecords(path string, recs []record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
