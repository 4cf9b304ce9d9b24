package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords reads a results file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// readBounds reads the end-to-end metric definitions, bounds included,
// from BENCHMARK.json.
func readBounds(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file.EndToEnd, nil
}

// samples collects the values a results file holds for one metric of one
// workload over its untraced records.
func samples(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of a base and a candidate sample of a metric.
// worse: the candidate's median is worse than the base's by more than
// bound (as a share of the base). unresolved: it is not, but either
// sample's own spread — the distance between its quartiles as a share of
// its median — is wider than the bound, so "no worse" was not shown.
func judge(base, cand []float64, better string, bound float64) (ratio float64, verdict string) {
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(cand)
	if bmed == 0 {
		return 0, verdictUnresolved
	}
	ratio = cmed / bmed
	loss := ratio - 1
	if better == higher {
		loss = 1 - ratio
	}
	switch {
	case loss > bound:
		return ratio, verdictWorse
	case (bq3-bq1)/bmed > bound || (cmed != 0 && (cq3-cq1)/cmed > bound):
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

// compareFiles prints one row per workload × end-to-end metric for two
// results files — both medians with their quartiles, the ratio B/A, the
// bound, a verdict — and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	defs, err := readBounds(benchmarkJSON)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\nratio = median B / median A\n\n", pathA, pathB)
	fmt.Fprintf(w, "%-14s %-14s %-5s %12s %25s %3s %12s %25s %3s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "n", "B median", "B q1..q3", "n", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range defs {
			sa, sb := samples(a, wl.name, m.Name), samples(b, wl.name, m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(sa)
			bq1, bmed, bq3 := quartiles(sb)
			ratio, verdict := judge(sa, sb, m.Better, m.Bound)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(w, "%-14s %-14s %-5s %12.6g %25s %3d %12.6g %25s %3d %7.4f %6.2f  %s\n",
				wl.name, m.Name, m.Unit, amed, fmt.Sprintf("%.6g..%.6g", aq1, aq3), len(sa),
				bmed, fmt.Sprintf("%.6g..%.6g", bq1, bq3), len(sb), ratio, m.Bound, verdict)
		}
	}
	return worse, nil
}
