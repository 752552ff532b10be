package mr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TaskError reports a map or reduce task whose attempt budget is
// exhausted: every attempt failed with a retryable error and no more
// may be launched. It wraps the first attempt's error (first-error
// propagation — later attempts' errors are echoes of the same fault).
// Callers classify it with errors.As; the serving layer maps it to
// 503 + Retry-After.
type TaskError struct {
	Job      string
	Phase    string // "map" or "reduce"
	Task     int
	Attempts int
	Err      error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("mr: job %s: %s task %d failed after %d attempts: %v",
		e.Job, e.Phase, e.Task, e.Attempts, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// retryableError marks a failure worth re-attempting: injected kills
// and spill-integrity errors. User-code errors (bad partitions, emit
// failures, panics) and context cancellation are deliberately NOT
// retryable — they are deterministic, so a retry would only repeat them.
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

func retryable(err error) error { return retryableError{err: err} }

func isRetryable(err error) bool {
	var r retryableError
	return errors.As(err, &r)
}

// Speculation arming: a phase needs this many completed attempts
// before medians mean anything, and the straggler threshold never
// drops below the floor — tasks in this engine complete in
// microseconds, so a sub-second floor would let one GC pause launch a
// spurious backup and perturb the attempt counters determinism tests
// strip. Tests override these to exercise speculation quickly.
var (
	specMinSamples = 5
	specFloor      = time.Second
)

// The attempt budget and the straggler threshold. A task runs at most
// maxTaskAttempts times before its first error propagates (Hadoop's
// mapred.map.max.attempts); failed attempts charge the simulated clock
// — the slot is held for the extra runs plus a capped doubling
// backoff. A running attempt that exceeds speculativeFactor times the
// phase's median completed attempt duration gets one speculative
// backup, first finisher wins; speculation never changes results,
// only wall clock.
const (
	maxTaskAttempts   = 4
	speculativeFactor = 3.0
)

// Retry backoff charged to the simulated clock, in cluster seconds:
// doubling from retryBackoffBase, capped at retryBackoffCap — the
// scheduling gap between a failed attempt and its re-launch. Real
// retries do not sleep (the fault is injected, not transient); the
// backoff exists in virtual time so a faulted run's makespan prices
// recovery the way §4.1 prices everything else.
const (
	retryBackoffBase = 2.0  // seconds before the first re-attempt
	retryBackoffCap  = 30.0 // per-gap ceiling
)

// backoffSeconds is the total virtual backoff for `fails` failed
// attempts of one task.
func backoffSeconds(fails int) float64 {
	total, gap := 0.0, retryBackoffBase
	for i := 0; i < fails; i++ {
		total += gap
		gap *= 2
		if gap > retryBackoffCap {
			gap = retryBackoffCap
		}
	}
	return total
}

// attemptOutcome is what a successful attempt hands back: commit
// publishes the attempt's output into the run's shared state, discard
// releases it (spill runs included) without publishing. Exactly one of
// the two is invoked, exactly once — the "loser discarded atomically"
// half of speculative execution.
type attemptOutcome struct {
	commit  func()
	discard func()
}

// attemptFn runs one attempt of a task. Attempts must be idempotent
// and isolated: every attempt derives its output only from the
// attempt-scoped state it creates (own buckets, own spill files), so
// any attempt's committed output is bit-identical to any other's. sh
// is the attempt's tracing shard (nil for speculative backups — shards
// are single-writer).
type attemptFn func(ctx context.Context, attempt int, sh *obs.Shard) (attemptOutcome, error)

// faultRuntime carries one Run's fault-tolerance state: the resolved
// injector, per-phase duration samples for the straggler median, and
// the fault counters that roll into Metrics.
type faultRuntime struct {
	job string
	inj *injector
	o   *obs.Obs

	mu   sync.Mutex
	durs [numPhases][]time.Duration // completed attempt durations
	idle []*taskRound               // rounds (and their timers) between tasks

	attempts         [numPhases]atomic.Int64
	specLaunched     atomic.Int64
	specWins         atomic.Int64
	checksumFailures atomic.Int64
	failoverReads    atomic.Int64
}

func newFaultRuntime(plan *FaultPlan, job *Job, nMap, nRed int, o *obs.Obs) *faultRuntime {
	return &faultRuntime{
		job: job.Name,
		inj: newInjector(plan, job.Name, nMap, nRed),
		o:   o,
	}
}

// maybeFault injects this attempt's scheduled delay and kill, in that
// order (a straggler that is also killed stalls first). The delay is
// interruptible by ctx so cancellation stays prompt.
func (ft *faultRuntime) maybeFault(ctx context.Context, ph, task, attempt int) error {
	if ft.inj == nil {
		return nil
	}
	if d := ft.inj.delay(ph, task, attempt); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if ft.inj.kill(ph, task, attempt) {
		return retryable(fmt.Errorf("injected %s kill: task %d attempt %d", phaseName(ph), task, attempt))
	}
	return nil
}

// recordDur feeds one completed attempt's duration into the phase's
// straggler baseline.
func (ft *faultRuntime) recordDur(ph int, d time.Duration) {
	ft.mu.Lock()
	// Sorted insert keeps the median read in specThreshold O(1); this
	// runs once per completed attempt, on the scheduling path of every
	// task, so it must not sort.
	s := ft.durs[ph]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= d })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = d
	ft.durs[ph] = s
	ft.mu.Unlock()
}

// specThreshold returns the straggler cutoff for the phase —
// speculativeFactor times the median completed-attempt duration, never
// below the floor — or 0 while too few attempts have completed to
// call anything a straggler.
func (ft *faultRuntime) specThreshold(ph int) time.Duration {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	n := len(ft.durs[ph])
	if n < specMinSamples {
		return 0
	}
	th := time.Duration(float64(ft.durs[ph][n/2]) * speculativeFactor)
	if th < specFloor {
		th = specFloor
	}
	return th
}

// counters rolled into Metrics at the end of a Run.
func (ft *faultRuntime) metricsInto(m *Metrics) {
	m.MapAttempts = int(ft.attempts[phaseMap].Load())
	m.ReduceAttempts = int(ft.attempts[phaseReduce].Load())
	m.SpeculativeLaunched = int(ft.specLaunched.Load())
	m.SpeculativeWins = int(ft.specWins.Load())
	m.ChecksumFailures = ft.checksumFailures.Load()
	m.FailoverReads = ft.failoverReads.Load()
}

// checksumFailure records one detected spill-frame corruption
// (quarantine counter, before failover).
func (ft *faultRuntime) checksumFailure() {
	if ft == nil {
		return
	}
	ft.checksumFailures.Add(1)
	ft.o.Counter("mr.checksum_failures").Add(1)
}

// failoverRead records one successful replica re-read after a
// checksum failure.
func (ft *faultRuntime) failoverRead() {
	if ft == nil {
		return
	}
	ft.failoverReads.Add(1)
	ft.o.Counter("mr.failover_reads").Add(1)
}

// taskRound is the state one round of a task's attempts shares between
// the worker running the primary, the straggler timer and the backup the
// timer may launch. A worker borrows one from the runtime per task, timer
// included, so arming the timer costs no allocation.
type taskRound struct {
	ft         *faultRuntime
	timer      *time.Timer   // runs straggle; made on first arming
	backupDone chan struct{} // the backup's exit, buffered: it never waits

	// The round's task, set by race before any attempt can start.
	ctx             context.Context
	ph, task, first int // first is the primary's ordinal; the backup is first+1
	fn              attemptFn
	errs            [2]error // primary's, backup's; read once both are back

	mu        sync.Mutex
	deadline  time.Time // a backup may launch from here on; zero when none may
	backup    bool      // launched this round
	committed bool
}

// borrowRound takes an idle round or makes the worker's first.
func (ft *faultRuntime) borrowRound() *taskRound {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if n := len(ft.idle); n > 0 {
		r := ft.idle[n-1]
		ft.idle = ft.idle[:n-1]
		return r
	}
	return &taskRound{ft: ft, backupDone: make(chan struct{}, 1)}
}

// runTask executes one task as a sequence of attempt rounds until an
// attempt commits or the budget is exhausted. Each round races the
// serial attempt against (at most) one speculative backup launched
// when the attempt outlives the phase's straggler threshold; the first
// success commits, every other outcome is discarded, and — crucially —
// the round joins the backup it launched before returning, so no
// attempt ever outlives the task and races the engine's shared state.
func (ft *faultRuntime) runTask(ctx context.Context, ph, task int, sh *obs.Shard, fn attemptFn) error {
	r := ft.borrowRound()
	defer func() {
		ft.mu.Lock()
		ft.idle = append(ft.idle, r)
		ft.mu.Unlock()
	}()
	next := 0
	var firstErr error
	for {
		committed, launched, err := r.race(ctx, ph, task, next, sh, fn)
		next += launched
		if committed {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if ctx.Err() != nil {
			return err
		}
		if !isRetryable(err) {
			return err
		}
		if next >= maxTaskAttempts {
			return &TaskError{Job: ft.job, Phase: phaseName(ph), Task: task, Attempts: next, Err: firstErr}
		}
	}
}

// race runs one attempt round. The primary attempt, ordinal `first`,
// runs here, on the calling worker's goroutine; when the phase has a
// straggler baseline the round's timer is armed first, and should it
// expire while the primary is still running, straggle launches the one
// backup on a goroutine of its own. Whichever attempt succeeds first
// commits (a backup winning counts as a speculative win); a later
// success is discarded. With no success, the lowest ordinal's error is
// returned so propagation order is deterministic.
func (r *taskRound) race(ctx context.Context, ph, task, first int, sh *obs.Shard, fn attemptFn) (committed bool, launched int, err error) {
	ft := r.ft
	r.ctx, r.ph, r.task, r.first, r.fn = ctx, ph, task, first, fn
	r.errs = [2]error{}
	th := ft.specThreshold(ph)
	if first+1 >= maxTaskAttempts {
		th = 0
	}
	r.mu.Lock()
	r.backup, r.committed = false, false
	if th > 0 {
		r.deadline = time.Now().Add(th)
		if r.timer == nil {
			r.timer = time.AfterFunc(th, r.straggle)
		} else {
			r.timer.Reset(th)
		}
	}
	r.mu.Unlock()

	ft.attempts[ph].Add(1)
	r.run(first, sh)

	r.mu.Lock()
	r.deadline = time.Time{} // the primary is back: no backup from here on
	backup := r.backup
	r.mu.Unlock()
	if th > 0 {
		r.timer.Stop()
	}
	launched = 1
	if backup {
		<-r.backupDone
		launched = 2
	}
	if r.committed {
		return true, launched, nil
	}
	return false, launched, cmp.Or(r.errs[0], r.errs[1])
}

// straggle is the round's timer firing: the primary has outlived the
// straggler threshold, so its backup starts. A firing that lost the
// race with the primary's return — even one delayed into the worker's
// next task, whose deadline is still ahead — finds nothing to do.
func (r *taskRound) straggle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deadline.IsZero() || time.Now().Before(r.deadline) {
		return
	}
	r.deadline = time.Time{}
	r.backup = true
	r.ft.specLaunched.Add(1)
	r.ft.o.Counter("mr.speculative_launched").Add(1)
	r.ft.attempts[r.ph].Add(1)
	go func() {
		// No tracing shard: shards are single-writer, and the worker's is
		// the primary's.
		r.run(r.first+1, nil)
		r.backupDone <- struct{}{}
	}()
}

// run executes attempt ord on the calling goroutine and settles it in
// the round: the round's first success commits, the other discards, and
// a failure is kept for the round's verdict.
func (r *taskRound) run(ord int, sh *obs.Shard) {
	start := time.Now()
	out, err := r.call(ord, sh)
	if err != nil {
		r.errs[ord-r.first] = err
		return
	}
	r.ft.recordDur(r.ph, time.Since(start))
	r.mu.Lock()
	won := !r.committed
	r.committed = true
	r.mu.Unlock()
	if !won {
		if out.discard != nil {
			out.discard()
		}
		return
	}
	if out.commit != nil {
		out.commit()
	}
	if ord > r.first {
		r.ft.specWins.Add(1)
	}
}

// call is the attempt function under a recover: a panic in a Map, Reduce
// or Partitioner function would take the whole process down from this
// goroutine. It becomes the attempt's error instead — not retryable,
// since the same input would panic again — and the round settles as on
// any other failed attempt.
func (r *taskRound) call(ord int, sh *obs.Shard) (out attemptOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mr: job %s: %s task %d attempt %d panicked: %v\n%s",
				r.ft.job, phaseName(r.ph), r.task, ord, p, debug.Stack())
		}
	}()
	return r.fn(r.ctx, ord, sh)
}
