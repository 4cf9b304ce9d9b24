package ccalg

import (
	"errors"
	"fmt"

	"dbcc/internal/engine"
	"dbcc/internal/sql"
)

// The adaptive planner's thresholds. They are deliberately coarse: the
// planner's job is to avoid the pathological pairings (rc-det on a
// high-diameter path, plain contraction on a hub-dominated graph, an
// expansion-hungry driver under a tight space budget), not to shave the
// last round off a good one. All of them feed rules over exact row counts,
// so a decision is a pure function of the graph and the run options —
// never of engine tuning knobs, memory budgets or injected faults.
const (
	// autoBudgetHeadroom: budgets tighter than this multiple of the input
	// table's footprint route to Two-Phase, the driver with the flattest
	// space profile (O(|E|) with no expansion step).
	autoBudgetHeadroom = 8
	// autoHubDegree / autoSkewFactor: a graph whose maximum degree is both
	// absolutely high and this many times the average is "skewed" and
	// routes to Local Contraction, whose hub exception was built for it.
	autoHubDegree  = 64
	autoSkewFactor = 8
	// autoProbeRounds: how many rounds of BFS-style minimum propagation
	// the diameter probe runs before giving up. Convergence within the
	// probe means every component has radius (from its minimum vertex)
	// within autoProbeRounds; non-convergence routes to Log-Diameter.
	autoProbeRounds = 6
	// autoBlowupFactor / autoRoundCeiling: the live monitor abandons the
	// planned driver and falls back to Two-Phase when its live edge set
	// grows past autoBlowupFactor times the input's (the pre-scan's edge
	// count), or its round count passes autoRoundCeiling. Both triggers
	// are functions of the RoundStats stream, not of wall time, so runs
	// stay reproducible.
	autoBlowupFactor = 8
	autoRoundCeiling = 512
)

// The pre-scan's statistics over the input $1, each one aggregate query
// over its symmetrised, deduplicated, loop-free edge set, nothing
// materialised.
var (
	autoDegrees      = `(select v, count(*) as deg from ` + edgeSet("$1") + ` as ed group by v)`
	autoSQLVertices  = `select count(*) as n from ` + autoDegrees + ` as d`
	autoSQLEdges     = `select count(*) as n from ` + edgeSet("$1") + ` as ed`
	autoSQLMaxDegree = `select max(deg) as maxdeg from ` + autoDegrees + ` as d`
)

// Prescan is the cheap statistics pass behind a planning decision.
type Prescan struct {
	Vertices  int64 // distinct endpoints of the symmetrised input
	Edges     int64 // symmetric, deduplicated, loop-free edge count
	MaxDegree int64 // maximum degree in the symmetrised graph
	AvgDegree int64 // Edges / Vertices (integer division)
	// ProbeRounds is how many minimum-propagation rounds the diameter
	// probe ran, and ProbeConverged whether labels reached a fixpoint
	// within them. The probe only runs when the earlier, cheaper rules
	// fail to decide, so both fields are zero for e.g. skewed graphs.
	ProbeRounds    int
	ProbeConverged bool
}

// AutoDecision is the outcome of planning: which driver to run and why.
type AutoDecision struct {
	// Algorithm is one of "rc-det", "tp", "lc", "ld" — the planner only
	// ever picks deterministic drivers so that Auto stays reproducible.
	Algorithm string
	// Reason is the matched rule, in one human-readable line.
	Reason  string
	Prescan Prescan
}

// PlanAlgorithm runs the pre-scan and decides which driver Auto would use
// for the given input, without running it. The rules, in order:
//
//  1. no edges                         → rc-det (any driver is one round)
//  2. MaxLiveBytes < 8× input bytes    → tp (flattest space profile)
//  3. max degree ≥ 64 and ≥ 8× average → lc (hub exception pays off)
//  4. diameter probe does not converge → ld (round count tracks log D)
//  5. otherwise                        → rc-det (the paper's best all-rounder)
//
// Rules 1–3 cost three aggregate queries and no temp tables; the probe
// (rule 4) materialises a label table and runs up to autoProbeRounds
// minimum-propagation rounds — the "few BFS probes" of the design note.
func PlanAlgorithm(c *engine.Cluster, input string, opts Options) (AutoDecision, error) {
	if err := validateInput(c, input); err != nil {
		return AutoDecision{}, err
	}
	r := newRun(c, opts, "auto")
	// The probe drops its tables on success; after a failure, dropping
	// is best-effort and the failure is the error to report.
	defer r.dropTemps()
	return plan(r, input, opts)
}

// plan is PlanAlgorithm's pre-scan and rules, run inside r.
func plan(r *run, input string, opts Options) (AutoDecision, error) {
	var d AutoDecision
	var err error
	if d.Prescan.Vertices, err = r.count(autoSQLVertices, sql.Table(input)); err != nil {
		return d, err
	}
	if d.Prescan.Edges, err = r.count(autoSQLEdges, sql.Table(input)); err != nil {
		return d, err
	}
	if d.Prescan.MaxDegree, err = r.count(autoSQLMaxDegree, sql.Table(input)); err != nil {
		return d, err
	}
	if d.Prescan.Vertices > 0 {
		d.Prescan.AvgDegree = d.Prescan.Edges / d.Prescan.Vertices
	}

	if d.Prescan.Edges == 0 {
		d.Algorithm, d.Reason = "rc-det", "no edges: every vertex is its own component"
		return d, nil
	}
	if t, ok := r.c.Table(input); ok && opts.MaxLiveBytes > 0 && opts.MaxLiveBytes < autoBudgetHeadroom*t.Bytes() {
		d.Algorithm = "tp"
		d.Reason = fmt.Sprintf("space budget %d B under %d× the input's %d B: two-phase has the flattest space profile",
			opts.MaxLiveBytes, autoBudgetHeadroom, t.Bytes())
		return d, nil
	}
	if d.Prescan.MaxDegree >= autoHubDegree && d.Prescan.MaxDegree >= autoSkewFactor*max(d.Prescan.AvgDegree, 1) {
		d.Algorithm = "lc"
		d.Reason = fmt.Sprintf("degree skew: max degree %d ≥ %d and ≥ %d× the average %d",
			d.Prescan.MaxDegree, autoHubDegree, autoSkewFactor, d.Prescan.AvgDegree)
		return d, nil
	}

	if err := probeDiameter(r, input, &d.Prescan); err != nil {
		return d, err
	}
	if !d.Prescan.ProbeConverged {
		d.Algorithm = "ld"
		d.Reason = fmt.Sprintf("diameter probe unconverged after %d rounds: log-diameter rounds beat contraction",
			d.Prescan.ProbeRounds)
		return d, nil
	}
	d.Algorithm = "rc-det"
	d.Reason = fmt.Sprintf("diameter probe converged in %d rounds with no degree skew: deterministic randomised contraction",
		d.Prescan.ProbeRounds)
	return d, nil
}

// probeDiameter runs up to autoProbeRounds rounds of BFS's minimum
// propagation (l(v) ← min of l over the closed neighbourhood) over the
// full graph, starting from the identity labelling, and records whether
// labels converge. Convergence in k rounds bounds every component's radius
// from its minimum vertex by k.
func probeDiameter(r *run, input string, p *Prescan) error {
	if _, err := initFrontier(r, input, "pb"); err != nil {
		return err
	}
	for i := 1; i <= autoProbeRounds; i++ {
		p.ProbeRounds = i
		if _, err := r.create("pb_l2", bfsSQLStep, r.tab("pb_l"), r.tab("pb_e")); err != nil {
			return err
		}
		changed, err := r.count(sqlCountChanged, r.tab("pb_l"), r.tab("pb_l2"))
		if err != nil {
			return err
		}
		if err := r.replace("pb_l", "pb_l2"); err != nil {
			return err
		}
		if changed == 0 {
			p.ProbeConverged = true
			break
		}
	}
	return r.drop("pb_l", "pb_e")
}

// Auto is the adaptive planner driver: it pre-scans the input as
// PlanAlgorithm does, runs the chosen driver, and watches its RoundStats
// stream live — a run whose live edge set blows past autoBlowupFactor
// times the input's, or whose round count passes autoRoundCeiling, is
// abandoned and Two-Phase takes over in the same run, its rounds
// continuing the log. The planner only ever picks deterministic drivers,
// and both monitor triggers are functions of the round statistics alone,
// so Auto is as reproducible as any single driver.
func Auto(c *engine.Cluster, input string, opts Options) (*Result, error) {
	m := autoMonitor{blowup: autoBlowupFactor, ceiling: autoRoundCeiling}
	return drive(c, input, opts, "auto", func(r *run, input string) (string, error) {
		return runAuto(r, input, opts, m)
	})
}

// runAuto is Auto's body under the monitor m.
func runAuto(r *run, input string, opts Options, m autoMonitor) (string, error) {
	d, err := plan(r, input, opts)
	if err != nil {
		return "", err
	}
	r.alg = d.Algorithm
	var b body
	switch d.Algorithm {
	case "rc-det":
		r.alg = "rc"
		opts.RC.Deterministic = true
		b = rcBody(opts)
	case "lc":
		b = runLocalContract
	case "ld":
		b = runLogDiameter
	case "tp":
		// Two-Phase is the fallback itself, so it runs unwatched.
		return runTwoPhase(r, input)
	default:
		return "", fmt.Errorf("ccalg: auto planned unknown algorithm %q", d.Algorithm)
	}
	m.input = d.Prescan.Edges
	r.watch = m.check
	labels, err := b(r, input)
	if !errors.Is(err, errAutoAbort) {
		return labels, err
	}
	// A monitor abort (and nothing else) falls back to Two-Phase; genuine
	// failures — the caller's cancellation, space exhaustion — propagate
	// as-is. The abandoned driver's tables go first, so the fallback runs
	// within the same space budget.
	r.watch = nil
	if err := r.dropTemps(); err != nil {
		return "", err
	}
	r.alg = "tp"
	return runTwoPhase(r, input)
}

// autoMonitor is Auto's live monitor: its check, the planned driver's
// watch, abandons the driver when its live edge set grows past blowup
// times the input's edge count or its round count passes ceiling.
type autoMonitor struct {
	blowup  int64
	ceiling int
	// input is the pre-scan's edge count, in the symmetric, deduplicated,
	// loop-free convention of the contraction drivers' LiveEdges.
	input int64
}

func (m autoMonitor) check(rs RoundStats) error {
	switch {
	case rs.LiveEdges > m.blowup*m.input:
		return fmt.Errorf("%w: live edges %d blew past %d× the input's %d", errAutoAbort, rs.LiveEdges, m.blowup, m.input)
	case rs.Round > m.ceiling:
		return fmt.Errorf("%w: passed %d rounds without converging", errAutoAbort, m.ceiling)
	}
	return nil
}

// errAutoAbort is the error the monitor abandons a planned driver with.
var errAutoAbort = errors.New("ccalg: auto monitor abandoned the planned driver")
