// Fault tolerance: the execution substrate the paper takes for granted.
//
// The paper's algorithm is "always correct" on an MPP cluster because the
// cluster substrate (HAWQ over Hadoop; MapReduce rounds in Rastogi et al.)
// assumes segment tasks fail and get retried: a segment process dies, the
// scheduler reruns its task, and the query either completes with the same
// answer or aborts cleanly. This file reproduces that model in-process:
//
//   - every statement executes under a context.Context (cancellation and
//     Options.QueryTimeout deadlines are honoured between operators and
//     between segment tasks, and in-flight tasks are drained before the
//     statement returns — no goroutine outlives its query);
//   - Options.Faults simulates segment failure and latency spikes,
//     deterministically per seed: whether a given task attempt fails is a
//     pure function of (seed, statement, operator, segment, attempt), so a
//     chaos run is exactly reproducible regardless of goroutine schedule;
//   - failed task attempts are retried with capped exponential backoff up
//     to Faults.MaxTaskRetries times per task and Faults.RetryBudget times
//     per statement, and every retry/fault/cancellation is counted in the
//     operator's OpMetrics (EXPLAIN ANALYZE prints them);
//   - a task that panics (malformed plan, broken UDF) is converted into an
//     error that fails its query, not the process, and on the first task
//     error the remaining tasks of the fan-out are cancelled with the
//     lowest-segment error winning deterministically.
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dbcc/internal/xrand"
)

// ErrInjectedFault marks a segment-task failure produced by the fault
// injector. It is the only error class the engine considers transient and
// therefore retries; real execution errors (bad plans, broken UDFs) fail
// the query immediately.
var ErrInjectedFault = errors.New("engine: injected segment fault")

// FaultConfig is the cluster's fault model: which segment-task attempts
// and spill writes the injector fails, and the retry policy that absorbs
// those failures. Injected faults are the only errors the engine retries,
// so the policy belongs with them. The zero value injects nothing.
type FaultConfig struct {
	// Seed drives all fault decisions; two runs issuing the same statement
	// sequence under the same seed inject exactly the same faults.
	Seed uint64
	// FailureRate is the probability in [0, 1] that any one segment-task
	// attempt fails before doing any work, modelling a segment process
	// dying between scheduling and completion.
	FailureRate float64
	// LatencyRate is the probability that a task attempt is delayed by
	// Latency before running, modelling a straggling segment.
	LatencyRate float64
	// Latency is the injected delay for latency spikes; 0 means 200µs.
	Latency time.Duration
	// SpillFailureRate is the probability in [0, 1] that any one spill-file
	// write fails — the disk failure surface of memory-bounded execution.
	// Spill faults are retried exactly like segment failures: the whole
	// segment-task attempt reruns and writes fresh extents of the
	// statement's spill file.
	SpillFailureRate float64

	// MaxTaskRetries is how many times one segment task is retried after
	// an injected fault before its query fails; 0 means the default of 3,
	// negative disables retries.
	MaxTaskRetries int
	// RetryBackoff is the base of the capped exponential backoff between
	// task retries; 0 means the default of 200µs.
	RetryBackoff time.Duration
	// RetryBudget caps the total retries one statement may consume across
	// all its tasks; 0 means the default of 1024, negative disables
	// retries entirely.
	RetryBudget int
}

// FaultInjector deterministically injects segment-task failures and
// latency spikes. An injector is safe for concurrent use; determinism is
// per statement sequence, so single-session runs reproduce exactly.
type FaultInjector struct {
	cfg      FaultConfig
	injected atomic.Int64 // total failures injected
	delayed  atomic.Int64 // total latency spikes injected
}

// newFaultInjector builds the injector for cfg, or returns nil when no
// rate is above 0 and nothing would ever be injected.
func newFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.FailureRate <= 0 && cfg.LatencyRate <= 0 && cfg.SpillFailureRate <= 0 {
		return nil
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 200 * time.Microsecond
	}
	return &FaultInjector{cfg: cfg}
}

// FaultInjector returns the cluster's fault injector, or nil when
// Options.Faults injects nothing.
func (c *Cluster) FaultInjector() *FaultInjector { return c.injector }

// Injected returns the total number of failures this injector produced.
func (f *FaultInjector) Injected() int64 { return f.injected.Load() }

// Delayed returns the total number of latency spikes this injector
// produced.
func (f *FaultInjector) Delayed() int64 { return f.delayed.Load() }

// decide returns the fault decision for one task attempt. The decision is
// a pure function of the injector seed and the task identity, so it does
// not depend on goroutine scheduling.
func (f *FaultInjector) decide(stmt uint64, op int64, seg, attempt int) (fail bool, delay time.Duration) {
	h := xrand.Mix64(f.cfg.Seed ^ xrand.Mix64(stmt))
	h = xrand.Mix64(h ^ uint64(op)<<20 ^ uint64(seg)<<8 ^ uint64(attempt))
	// Two independent draws from one hash: low word for failure, high for
	// latency.
	const scale = 1 << 32
	if float64(h&(scale-1))/scale < f.cfg.FailureRate {
		f.injected.Add(1)
		fail = true
	}
	if float64(h>>32)/scale < f.cfg.LatencyRate {
		f.delayed.Add(1)
		delay = f.cfg.Latency
	}
	return fail, delay
}

// decideSpillIO returns the fault decision for the nth spill write of one
// task attempt. Like decide, it is a pure function of the injector seed
// and the write's identity — spill kernels issue their writes in a
// deterministic order within one attempt, so chaos runs reproduce.
func (f *FaultInjector) decideSpillIO(stmt uint64, op int64, seg, attempt int, nth int64) bool {
	h := xrand.Mix64(f.cfg.Seed ^ 0x5f111ed ^ xrand.Mix64(stmt))
	h = xrand.Mix64(h ^ uint64(op)<<28 ^ uint64(seg)<<20 ^ uint64(attempt)<<14 ^ uint64(nth))
	const scale = 1 << 32
	if float64(h&(scale-1))/scale < f.cfg.SpillFailureRate {
		f.injected.Add(1)
		return true
	}
	return false
}

// recoverToError converts a panic escaping a statement into a returned
// error, so a malformed plan or broken UDF fails one query instead of the
// whole process. Segment-task panics are already converted by the task
// runner; this boundary guard catches the statement's coordinator code.
func recoverToError(label string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = fmt.Errorf("engine: panic during %s: %v\n%s", label, r, debug.Stack())
}

// execEnv is the per-statement execution environment: the context the
// statement runs under, its identity for deterministic fault injection,
// its remaining retry budget, and the fault counters the operator being
// executed accumulates into (finishOp drains them into that operator's
// OpMetrics; operators execute depth-first and sequentially, so the
// counters always belong to exactly one operator).
type execEnv struct {
	c    *Cluster
	ctx  context.Context
	stmt uint64 // statement sequence number (fault-injection identity)

	opSeq  atomic.Int64 // parallel-phase counter within the statement
	budget atomic.Int64 // remaining statement-wide retry budget

	opRetries   atomic.Int64
	opFaults    atomic.Int64
	opCancelled atomic.Int64

	// Memory-bounded execution state: the statement's working-memory
	// ledger, its spill file (created on first spill write, closed by
	// close) and the file's end offset, the per-operator spill counters
	// finishOp drains, and each segment's current attempt number (spill
	// writes key their fault decisions on it; only the goroutine running
	// segment seg's task touches curAttempt[seg] at any moment).
	acct       memAcct
	spillOnce  sync.Once
	spill      *os.File
	spillErr   error
	spillEnd   atomic.Int64
	curAttempt []atomic.Int32

	opSpilled     atomic.Int64
	opSpillParts  atomic.Int64
	opSpillPasses atomic.Int64

	// scratch is the statement's arena: the column memory of the chunks
	// its operators hand one another, returned by close.
	scratch arena
}

// newExecEnv opens the execution environment for one statement.
func (c *Cluster) newExecEnv(ctx context.Context) *execEnv {
	e := &execEnv{c: c, ctx: ctx, stmt: c.stmtSeq.Add(1)}
	e.budget.Store(int64(c.retryBudget))
	e.curAttempt = make([]atomic.Int32, c.segments)
	return e
}

// close releases the statement's execution resources: its arena's
// memory, its spill file (already unlinked, so closing it frees the space
// whether the statement succeeded, failed or was cancelled mid-spill) and
// the fold of its memory ledger into the cluster stats. Every segment task
// has drained by then, so nothing still reads or writes the arena or the
// file.
func (e *execEnv) close() {
	e.scratch.release()
	if e.spill != nil {
		e.spill.Close()
	}
	spilled := e.acct.spilledBytes.Load()
	peak := e.acct.peak.Load()
	if spilled == 0 && peak == 0 {
		return
	}
	c := e.c
	c.statsMu.Lock()
	c.stats.SpilledBytes += spilled
	c.stats.SpillPartitions += e.acct.spillParts.Load()
	c.stats.SpillPasses += e.acct.spillPasses.Load()
	if peak > c.stats.PeakWorkBytes {
		c.stats.PeakWorkBytes = peak
	}
	c.statsMu.Unlock()
}

// statementContext applies the cluster's per-query deadline to a
// statement's context. The returned cancel must be called when the
// statement finishes.
func (c *Cluster) statementContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.queryTimeout > 0 {
		return context.WithTimeout(ctx, c.queryTimeout)
	}
	return context.WithCancel(ctx)
}

// cancelErr wraps a context error in the engine's cancellation message.
func cancelErr(err error) error {
	return fmt.Errorf("engine: query cancelled: %w", err)
}

// checkCancelled returns the statement's cancellation error, if any.
func (e *execEnv) checkCancelled() error {
	if err := e.ctx.Err(); err != nil {
		return cancelErr(err)
	}
	return nil
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffDelay is the capped exponential retry backoff: base doubling per
// attempt, capped at 16× base.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if attempt > 4 {
		attempt = 4
	}
	return base << attempt
}

// inlineRows is the input size, in rows, below which an operator's segment
// tasks run one after another on the calling goroutine instead of fanning
// out to the worker pool. A small operator's tasks take microseconds, less
// than the goroutine hand-off and scheduler wake-ups of a fan-out; most of
// RC's statements are small, as its live graph shrinks by a constant
// factor every round. Of 2,048, 8,192 and 32,768 on the benchmark's
// cc_small, cc_skew and cc_tp_bitcoin workloads, 2,048 was best or level
// on all three: cc_small gains as much as at the larger values, cc_skew
// more, and at 32,768 cc_tp_bitcoin loses the parallelism of operators
// that need it.
const inlineRows = 2048

// inlineBelow is the threshold parallel compares an operator's input with;
// tests lower it to 0 to force the fan-out on any input.
var inlineBelow int64 = inlineRows

// parallel runs fn(seg) for every segment and waits, with fault
// injection, per-task retry, panic recovery and cancellation. rows is the
// number of rows the tasks are handed — the operator's input — and decides
// where they run: below inlineRows (or with a pool of one worker) the
// tasks run in segment order on the calling goroutine, otherwise they fan
// out to at most Workers goroutines. Either way every task holds a slot of
// the cluster's worker semaphore while it runs, so at most Workers segment
// tasks run at any moment across the whole cluster, and each goes through
// the same attempt loop, fault decisions and counters. On the first task
// error the remaining not-yet-started tasks are cancelled; in-flight tasks
// are always drained before parallel returns, so no task ever outlives its
// statement or writes into shared state after the query has failed. When
// several tasks fail, the lowest-numbered segment's non-cancellation error
// wins, deterministically.
func (e *execEnv) parallel(rows int64, fn func(seg int) error) error {
	n := e.c.segments
	opID := e.opSeq.Add(1)
	spawn := min(e.c.workers, n)
	if spawn <= 1 || rows < inlineBelow {
		return e.inline(opID, fn)
	}
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	errs := make([]error, n)

	runTask := func(seg int) {
		if ctx.Err() != nil {
			e.opCancelled.Add(1)
			errs[seg] = ctx.Err()
			return
		}
		select {
		case e.c.sem <- struct{}{}:
		case <-ctx.Done():
			e.opCancelled.Add(1)
			errs[seg] = ctx.Err()
			return
		}
		err := e.runTaskAttempts(ctx, opID, seg, fn)
		<-e.c.sem
		if err != nil {
			errs[seg] = err
			cancel() // first failure cancels the remaining fan-out
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					return
				}
				runTask(s)
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: the lowest segment whose failure is a
	// real execution error, not the echo of the fan-out cancellation.
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isCancellation(err) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return e.finishParallel(cancelled)
}

// inline is parallel's path on the calling goroutine: the segment tasks
// run in order under the statement's own context, each holding a worker
// slot. A failure counts every later task as cancelled, as the fan-out's
// cancellation does, so it is the lowest failing segment, and the error
// parallel returns, by construction.
func (e *execEnv) inline(opID int64, fn func(seg int) error) error {
	done := e.ctx.Done()
	var failed error
	for seg := 0; seg < e.c.segments; seg++ {
		if failed != nil {
			e.opCancelled.Add(1)
			continue
		}
		select {
		case <-done:
			e.opCancelled.Add(1)
			continue
		default:
		}
		// A free slot is taken without the two-case select, whose
		// channel locking is most of a small task's scheduling cost.
		select {
		case e.c.sem <- struct{}{}:
		default:
			select {
			case e.c.sem <- struct{}{}:
			case <-done:
				e.opCancelled.Add(1)
				continue
			}
		}
		failed = e.runTaskAttempts(e.ctx, opID, seg, fn)
		<-e.c.sem
	}
	if failed != nil && !isCancellation(failed) {
		return failed
	}
	return e.finishParallel(failed)
}

// isCancellation reports whether a task error is a cancellation, which
// loses to any real execution error of the same fan-out.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finishParallel is the final check of a fan-out without a real execution
// error: the statement's own cancellation first, then a task's.
func (e *execEnv) finishParallel(cancelled error) error {
	if err := e.ctx.Err(); err != nil {
		return cancelErr(err)
	}
	if cancelled != nil {
		return cancelErr(cancelled)
	}
	return nil
}

// parallelTimed is parallel with a per-segment wall-time measurement of
// fn (attempts, injected latency and backoff included — the time a real
// scheduler would bill the task).
func (e *execEnv) parallelTimed(rows int64, fn func(seg int) error) ([]time.Duration, error) {
	times := make([]time.Duration, e.c.segments)
	err := e.parallel(rows, func(seg int) error {
		t0 := time.Now()
		ferr := fn(seg)
		times[seg] = time.Since(t0)
		return ferr
	})
	return times, err
}

// runTaskAttempts executes one segment task with the retry loop: injected
// faults are retried with capped exponential backoff while per-task
// retries and the statement retry budget last; every other error fails
// the task immediately.
func (e *execEnv) runTaskAttempts(ctx context.Context, opID int64, seg int, fn func(seg int) error) error {
	for attempt := 0; ; attempt++ {
		err := e.attemptTask(ctx, opID, seg, attempt, fn)
		if err == nil || !errors.Is(err, ErrInjectedFault) {
			return err
		}
		if attempt >= e.c.maxTaskRetries {
			return fmt.Errorf("engine: segment %d task failed after %d attempts: %w", seg, attempt+1, err)
		}
		if e.budget.Add(-1) < 0 {
			return fmt.Errorf("engine: statement retry budget exhausted: %w", err)
		}
		e.opRetries.Add(1)
		if serr := sleepCtx(ctx, backoffDelay(e.c.retryBackoff, attempt)); serr != nil {
			return serr
		}
	}
}

// attemptTask executes one attempt of one segment task: injected latency,
// injected failure (before any work, so a retried task is idempotent —
// completion is an atomic publish into the task's own output slot, the
// in-process analogue of a segment's task output being committed only on
// success), then fn, with panics converted to errors.
func (e *execEnv) attemptTask(ctx context.Context, opID int64, seg, attempt int, fn func(seg int) error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err = fmt.Errorf("engine: segment %d task panicked: %v\n%s", seg, r, debug.Stack())
	}()
	e.curAttempt[seg].Store(int32(attempt))
	if fi := e.c.injector; fi != nil {
		fail, delay := fi.decide(e.stmt, opID, seg, attempt)
		if delay > 0 {
			if serr := sleepCtx(ctx, delay); serr != nil {
				return serr
			}
		}
		if fail {
			e.opFaults.Add(1)
			return fmt.Errorf("segment %d (stmt %d op %d attempt %d): %w",
				seg, e.stmt, opID, attempt, ErrInjectedFault)
		}
	}
	return fn(seg)
}
