package mr

import (
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
// injector, the attempt budget, per-phase duration samples for the
// straggler median, and the fault counters that roll into Metrics.
type faultRuntime struct {
	job         string
	maxAttempts int
	specFactor  float64
	replicas    int // spill-frame read attempts (DFSReplication)
	inj         *injector
	o           *obs.Obs

	mu   sync.Mutex
	durs [numPhases][]time.Duration // completed attempt durations

	attempts         [numPhases]atomic.Int64
	specLaunched     atomic.Int64
	specWins         atomic.Int64
	checksumFailures atomic.Int64
	failoverReads    atomic.Int64
}

func newFaultRuntime(cfg Config, job *Job, nMap, nRed int, o *obs.Obs) *faultRuntime {
	ma := cfg.MaxTaskAttempts
	if ma == 0 {
		ma = defaultTaskAttempts
	}
	sf := cfg.SpeculativeFactor
	if sf == 0 {
		sf = defaultSpeculativeFactor
	}
	reps := cfg.DFSReplication
	if reps < 1 {
		reps = 1
	}
	return &faultRuntime{
		job:         job.Name,
		maxAttempts: ma,
		specFactor:  sf,
		replicas:    reps,
		inj:         newInjector(cfg.Faults, job.Name, nMap, nRed),
		o:           o,
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

// specThreshold returns the straggler cutoff for the phase — the
// configured multiple of the median completed-attempt duration, never
// below the floor — or 0 while too few attempts have completed to
// call anything a straggler.
func (ft *faultRuntime) specThreshold(ph int) time.Duration {
	if ft.maxAttempts < 2 {
		return 0
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	n := len(ft.durs[ph])
	if n < specMinSamples {
		return 0
	}
	th := time.Duration(float64(ft.durs[ph][n/2]) * ft.specFactor)
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
	ft.o.Counter("mr/checksum_failures").Add(1)
}

// failoverRead records one successful replica re-read after a
// checksum failure.
func (ft *faultRuntime) failoverRead() {
	if ft == nil {
		return
	}
	ft.failoverReads.Add(1)
	ft.o.Counter("mr/failover_reads").Add(1)
}

// attemptDone is one attempt's report back to the race loop.
type attemptDone struct {
	ord int
	out attemptOutcome
	err error
	dur time.Duration
}

// runTask executes one task as a sequence of attempt rounds until an
// attempt commits or the budget is exhausted. Each round races the
// serial attempt against (at most) one speculative backup launched
// when the attempt outlives the phase's straggler threshold; the first
// success commits, every other outcome is discarded, and — crucially —
// the round joins every goroutine it launched before returning, so no
// attempt ever outlives the task and races the engine's shared state.
func (ft *faultRuntime) runTask(ctx context.Context, ph, task int, sh *obs.Shard, fn attemptFn) error {
	next := 0
	var firstErr error
	for {
		committed, launched, err := ft.race(ctx, ph, task, next, sh, fn)
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
		if next >= ft.maxAttempts {
			return &TaskError{Job: ft.job, Phase: phaseName(ph), Task: task, Attempts: next, Err: firstErr}
		}
	}
}

// race runs one attempt round: launch attempt ordinal `first`, arm the
// speculation timer when the phase has a baseline, launch at most one
// backup on expiry, and wait for every launched attempt. The first
// success commits (a backup winning counts as a speculative win);
// later successes are discarded. With no success, the lowest ordinal's
// error is returned so propagation order is deterministic.
func (ft *faultRuntime) race(ctx context.Context, ph, task, first int, sh *obs.Shard, fn attemptFn) (committed bool, launched int, err error) {
	done := make(chan attemptDone, 2)
	launch := func(ord int, shard *obs.Shard) {
		ft.attempts[ph].Add(1)
		go func() {
			start := time.Now()
			d := attemptDone{ord: ord}
			// A panic in a Map, Reduce or Partitioner function would take
			// the whole process down from this goroutine. It becomes the
			// attempt's error instead — not retryable, since the same
			// input would panic again — and the round drains as on any
			// other failed attempt.
			defer func() {
				if p := recover(); p != nil {
					d.err = fmt.Errorf("mr: job %s: %s task %d attempt %d panicked: %v\n%s",
						ft.job, phaseName(ph), task, ord, p, debug.Stack())
				}
				d.dur = time.Since(start)
				done <- d
			}()
			d.out, d.err = fn(ctx, ord, shard)
		}()
	}
	launch(first, sh)
	launched = 1
	var specC <-chan time.Time
	if th := ft.specThreshold(ph); th > 0 && first+1 < ft.maxAttempts {
		t := time.NewTimer(th)
		defer t.Stop()
		specC = t.C
	}
	var errOrd int
	var reported int
	for reported < launched {
		select {
		case d := <-done:
			reported++
			if d.err == nil {
				ft.recordDur(ph, d.dur)
				if !committed {
					committed = true
					if d.out.commit != nil {
						d.out.commit()
					}
					if d.ord > first {
						ft.specWins.Add(1)
					}
				} else if d.out.discard != nil {
					d.out.discard()
				}
			} else if err == nil || d.ord < errOrd {
				err, errOrd = d.err, d.ord
			}
		case <-specC:
			specC = nil
			if !committed && launched == 1 && first+1 < ft.maxAttempts {
				ft.specLaunched.Add(1)
				ft.o.Counter("mr/speculative_launched").Add(1)
				launch(first+1, nil)
				launched++
			}
		}
	}
	if committed {
		return true, launched, nil
	}
	return false, launched, err
}
