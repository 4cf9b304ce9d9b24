package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// A workload is one named set of inputs and the traffic run against them.
// Later issues cite these names.
type workload struct {
	name string
	why  string
	// tailWant caps the percentile op_tail_ms is reported at (see
	// tailPercentile); it is chosen so the expected sample count of a
	// window supports it twice over.
	tailWant float64
	// counterOps is how many operations the engine counters are averaged
	// over (see window); 0 counts every operation.
	counterOps int
	// central, when set, replaces the plain median of the primary
	// operations' latencies as op_ms.
	central func(w *window) float64
	// setup generates the inputs from seed, loads them and starts whatever
	// the workload serves from. It is timed as setup_s, so it does nothing
	// else: oracles and fingerprints are computed lazily, outside it.
	setup func(seed uint64, scale int, tr *tracer, parent int32) (instance, error)
}

// An instance is a set-up workload ready to run repetitions.
type instance interface {
	// rep runs repetition i, timing its operations into w. With a non-nil
	// tracer it also records spans and the repetition's layer metrics.
	// Outputs are checked here, outside the timed regions.
	rep(i int, w *window, tr *tracer) error
	// layers runs once after the window of a traced run: the probes and
	// the once-per-run layer metrics.
	layers(w *window) error
	// input fingerprints the generated input (not timed).
	input() fingerprint
	close() error
}

var workloads = []workload{
	{name: "cc_grid", tailWant: 75, counterOps: 2 * seedCycle, setup: setupGrid,
		why: "rc on a Candels-style pixel grid: rounds of join, group-by-min and CREATE TABLE AS over shrinking tables; materialisation and scan carry a large share"},
	{name: "cc_skew", tailWant: 75, counterOps: 2 * seedCycle, setup: setupSkew,
		why: "rc on R-MAT, ~50 edges per vertex, one giant component: duplicate-key hash joins and shuffle dominate, materialisation is small"},
	{name: "cc_tp_bitcoin", tailWant: 75, counterOps: 2 * seedCycle, setup: setupTP,
		why: "Two-Phase through hand-built engine plans, bypassing SQL, group-by/distinct heavy, ~6x the bytes written per edge: shows a change that helps rc but costs other drivers"},
	{name: "cc_small", tailWant: 95, counterOps: 8 * smallChunk, setup: setupSmall,
		why: "load+rc+drop on ~1000 distinct 490-edge graphs: data volume is nil, per-statement fixed cost is everything; kernel work should not move it"},
	{name: "serve_mix", tailWant: 99, setup: setupServe, central: meanLatency,
		why: "in-process ccserverd, closed loop, one connection per core over 2 tenants, prepared INSERT/count/2000-row SELECT/CC mix: the only load on wire, client, admission and encode"},
	{name: "stream_insert", tailWant: 95, setup: setupStream,
		why: "256-row inserts into a table with a component index and a live Watch, a DELETE-triggered rc-det rebuild every 125 batches: appends, index upkeep and fan-out beside reads"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// window accumulates what the repetitions of one workload measured.
type window struct {
	wall  time.Duration // sum of the timed regions
	cpu   time.Duration // process user+system CPU inside them
	alloc uint64        // Go heap bytes allocated inside them
	ops   int           // operations completed inside them, every kind
	lat   []float64     // latency of each primary operation, ms

	attempted, failed int

	// Engine counters. Randomised Contraction's round count depends on
	// its seed, so the CC workloads cycle a fixed list of algorithm seeds
	// and average the counters over the first counterOps operations only:
	// a whole number of cycles, hence the same value on every run of one
	// input, however many repetitions the window then fits.
	counterOps int // 0: count every operation
	counted    int
	queries    float64
	written    float64
	peakSum    float64
	peakN      int

	// Traced runs alternate traced and plain repetitions; the latencies
	// of each kind give trace.overhead_share.
	tracedLat, plainLat []float64
	layer               map[string][]float64 // per traced repetition
	once                map[string]float64   // measured once per run
	// samples are a workload's own series (per-kind latencies, per-
	// repetition counts) that its finish turns into layer metrics.
	samples map[string][]float64
}

func newWindow(counterOps int) *window {
	return &window{counterOps: counterOps, layer: map[string][]float64{},
		once: map[string]float64{}, samples: map[string][]float64{}}
}

// timed runs fn as one timed region.
func (w *window) timed(fn func()) time.Duration {
	a0, c0, t0 := allocNow(), cpuNow(), time.Now()
	fn()
	d := time.Since(t0)
	w.cpu += cpuNow() - c0
	w.alloc += allocNow() - a0
	w.wall += d
	return d
}

// op records one finished primary operation.
func (w *window) op(d time.Duration, traced bool) {
	ms := float64(d) / float64(time.Millisecond)
	w.lat = append(w.lat, ms)
	if traced {
		w.tracedLat = append(w.tracedLat, ms)
	} else {
		w.plainLat = append(w.plainLat, ms)
	}
}

// count folds the engine counters of ops operations into the window.
func (w *window) count(ops int, queries, written, peak int64) {
	if w.counterOps > 0 && w.counted >= w.counterOps {
		return
	}
	w.counted += ops
	w.queries += float64(queries)
	w.written += float64(written)
	w.peakSum += float64(peak)
	w.peakN++
}

// check counts one verified output.
func (w *window) check(err error) {
	w.attempted++
	if err != nil {
		w.failed++
		fmt.Printf("  FAILED: %v\n", err)
	}
}

func (w *window) layerAdd(name string, v float64) { w.layer[name] = append(w.layer[name], v) }

func (w *window) sample(name string, v float64) { w.samples[name] = append(w.samples[name], v) }

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// A run sets each workload up at least minSetups times and until the
// set-ups have taken runConfig.setupBudget together (some take a millisecond, and
// the median of nine such timings still jitters by 20 %), at most
// maxSetups times. setup_s is the median; the last instance is measured.
const (
	minSetups = 9
	maxSetups = 200
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	seed    uint64
	seconds float64
	scale   int
	// setupBudget is the least time spent setting one workload up.
	setupBudget time.Duration
}

// outcome is what one workload produced in one invocation.
type outcome struct {
	def    workload
	inst   instance
	w      *window
	setups []float64
	rep    int
	err    error
}

// runWorkloads sets every workload up, then runs repetitions in passes —
// one repetition of each workload per pass, until each has filled its
// window — so a noisy minute on a shared host is spread over all of them
// instead of landing on one. With a single workload this is a plain loop.
func runWorkloads(defs []workload, cfg runConfig, tr *tracer) []*outcome {
	outs := make([]*outcome, len(defs))
	for i, def := range defs {
		outs[i] = setUp(def, cfg, tr)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for active := true; active; {
		active = false
		for _, o := range outs {
			if o.err != nil || o.w.wall >= budget {
				continue
			}
			active = true
			// Traced runs alternate, starting traced so that even a
			// one-repetition window yields layer metrics.
			var repTr *tracer
			if o.rep%2 == 0 {
				repTr = tr
			}
			runtime.GC()
			o.err = o.inst.rep(o.rep, o.w, repTr)
			o.rep++
		}
	}
	for _, o := range outs {
		if o.inst == nil {
			continue
		}
		if o.err == nil && tr != nil {
			o.err = o.inst.layers(o.w)
		}
		if o.err == nil {
			o.err = checkPin(o.def.name, cfg.seed, cfg.scale, o.inst.input())
		}
		if err := o.inst.close(); err != nil && o.err == nil {
			o.err = err
		}
	}
	return outs
}

// setUp times the set-ups, keeps the last instance, and runs one
// discarded warm-up repetition on it so caches fill and lazy set-up (plan
// cache, prepared statements, the oracle) finishes before timing.
func setUp(def workload, cfg runConfig, tr *tracer) *outcome {
	o := &outcome{def: def}
	mark := tr.mark()
	root := tr.begin("workload."+def.name, noSpan, noSpan, time.Now())
	defer func() { tr.finish(root, time.Now()) }()
	var spent time.Duration
	for k := 0; k < minSetups || (spent < cfg.setupBudget && k < maxSetups); k++ {
		if o.inst != nil {
			if o.err = o.inst.close(); o.err != nil {
				return o
			}
		}
		runtime.GC()
		t0 := time.Now()
		id := tr.begin("setup", root, noSpan, t0)
		o.inst, o.err = def.setup(cfg.seed, cfg.scale, tr, id)
		t1 := time.Now()
		tr.finish(id, t1)
		if o.err != nil {
			return o
		}
		spent += t1.Sub(t0)
		o.setups = append(o.setups, t1.Sub(t0).Seconds())
	}
	o.err = o.inst.rep(0, newWindow(0), nil)
	o.w = newWindow(def.counterOps)
	for name, v := range setupLayers(tr.since(mark), root) {
		o.w.once[name] = v
	}
	return o
}

// setupLayers reads the per-layer set-up costs off the set-up spans of one
// workload: the median over its set-ups of each named child span.
func setupLayers(spans []span, root int32) map[string]float64 {
	setups := map[int32]bool{}
	for _, s := range spans {
		if s.Parent == root && s.Name == "setup" {
			setups[s.ID] = true
		}
	}
	samples := map[string][]float64{}
	for _, s := range spans {
		if setups[s.Parent] {
			samples[s.Name] = append(samples[s.Name], float64(s.End-s.Start)/1e9)
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name+"_s"] = median(xs)
	}
	return out
}
