package mr

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// faultProbePlan is the CI smoke plan: two map kills, one reduce kill,
// one corrupted spill frame and one straggler, all seeded.
func faultProbePlan(t testing.TB) *FaultPlan {
	t.Helper()
	plan, err := ParseFaultPlan("seed=7,map-kills=2,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=10ms")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFaultInjectionDeterminism is the headline contract: with a fault
// plan whose faults are all retryable, the output and every
// deterministic metric are bit-identical to each other at any worker
// count — and the output matches the fault-free run.
func TestFaultInjectionDeterminism(t *testing.T) {
	in := spillProbeRelation(t, 3000)
	store := tempSpill(t)
	clean := mustRun(t, func() Config {
		cfg := smallConfig()
		cfg.SpillBudgetBytes = 4 << 10
		cfg.Spill = store
		return cfg
	}(), groupJob(in, 4))

	var first *Result
	var firstWorkers int
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		cfg := smallConfig()
		cfg.SpillBudgetBytes = 4 << 10
		cfg.Spill = store
		cfg.MaxParallelWorkers = w
		cfg.Faults = faultProbePlan(t)
		res := mustRun(t, cfg, groupJob(in, 4))
		requireSameOutput(t, clean.Output, res.Output, "faulty vs clean")
		if res.Metrics.ChecksumFailures != 1 || res.Metrics.FailoverReads != 1 {
			t.Errorf("workers=%d: corruption not absorbed exactly once: checksum=%d failover=%d",
				w, res.Metrics.ChecksumFailures, res.Metrics.FailoverReads)
		}
		if res.Metrics.MapFailures < 2 || res.Metrics.ReduceFailures < 1 {
			t.Errorf("workers=%d: planned kills not charged: %+v", w, res.Metrics)
		}
		if first == nil {
			first, firstWorkers = res, w
			continue
		}
		if !reflect.DeepEqual(zeroWallM(first.Metrics), zeroWallM(res.Metrics)) {
			t.Errorf("metrics diverged between %d and %d workers:\n%+v\nvs\n%+v",
				firstWorkers, w, zeroWallM(first.Metrics), zeroWallM(res.Metrics))
		}
		requireSameOutput(t, first.Output, res.Output, "across worker counts")
	}
	// Faulted runs must charge recovery to the simulated clock.
	if first.Metrics.Sim.Total <= clean.Metrics.Sim.Total {
		t.Errorf("injected kills did not extend simulated time: %v vs clean %v",
			first.Metrics.Sim.Total, clean.Metrics.Sim.Total)
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=42,map-kills=2,reduce-kills=1,corrupt-frames=3,stragglers=1,delay=300ms")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 42 || len(plan.Faults) != 7 {
		t.Fatalf("parsed %+v", plan)
	}
	counts := map[FaultKind]int{}
	var delay time.Duration
	for _, f := range plan.Faults {
		counts[f.Kind]++
		if f.Kind == FaultDelayMap {
			delay = f.Delay
		}
		if f.Task >= 0 {
			t.Errorf("parsed fault should use seeded picks, got task %d", f.Task)
		}
	}
	if counts[FaultKillMap] != 2 || counts[FaultKillReduce] != 1 ||
		counts[FaultCorruptSpill] != 3 || counts[FaultDelayMap] != 1 {
		t.Errorf("kind counts %v", counts)
	}
	if delay != 300*time.Millisecond {
		t.Errorf("delay %v", delay)
	}
	// String speaks the syntax it was parsed from: every parsed plan
	// parses back from its rendering to an equal plan.
	for _, spec := range []string{
		"seed=42,map-kills=2,reduce-kills=1,corrupt-frames=3,stragglers=1,delay=300ms",
		"seed=7,map-kills=2,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=300ms",
		"", "seed=-3", "stragglers=2", "delay=1s", "delay=1m30s,stragglers=3,seed=9",
		"corrupt-frames=1,reduce-kills=4", "stragglers=1,delay=0s",
	} {
		want, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseFaultPlan(want.String())
		if err != nil {
			t.Errorf("%q renders as %q, which does not parse: %v", spec, want.String(), err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q renders as %q, which parses to %+v, want %+v", spec, want.String(), got, want)
		}
	}

	for _, bad := range []string{"map-kills", "map-kills=-1", "map-kills=x", "seed=abc", "delay=xyz", "bogus=1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

// TestRetryExhaustion: a kill-every-attempt fault burns the whole
// budget and surfaces the FIRST attempt's error wrapped in a TaskError.
func TestRetryExhaustion(t *testing.T) {
	in := spillProbeRelation(t, 500)
	cfg := smallConfig()
	cfg.Faults = &FaultPlan{Faults: []Fault{{Kind: FaultKillMap, Task: 0, Attempt: -1}}}
	_, err := Run(context.Background(), cfg, groupJob(in, 2))
	if err == nil {
		t.Fatal("expected retry exhaustion")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %T %v is not a TaskError", err, err)
	}
	if te.Phase != "map" || te.Task != 0 || te.Attempts != maxTaskAttempts {
		t.Errorf("TaskError = %+v", te)
	}
	if te.Err == nil || !strings.Contains(te.Err.Error(), "attempt 0") {
		t.Errorf("first-error propagation: wrapped %v", te.Err)
	}
}

// TestSpeculativeBackupWins drives runTask directly with a controlled
// attempt function: the primary attempt stalls until the backup has
// committed, so the backup must win and the primary's outcome must be
// discarded — exactly once, atomically.
func TestSpeculativeBackupWins(t *testing.T) {
	quickSpeculation(t, time.Millisecond)
	ft := newFaultRuntime(nil, &Job{Name: "spec"}, 1, 1, nil)
	ft.recordDur(phaseMap, time.Millisecond) // establish the median

	release := make(chan struct{})
	var primaryCommitted, primaryDiscarded, backupCommitted atomic.Bool
	err := ft.runTask(context.Background(), phaseMap, 0, nil, func(ctx context.Context, attempt int, _ *obs.Shard) (attemptOutcome, error) {
		if attempt == 0 {
			<-release // stall the primary until the backup has won
			return attemptOutcome{
				commit:  func() { primaryCommitted.Store(true) },
				discard: func() { primaryDiscarded.Store(true) },
			}, nil
		}
		return attemptOutcome{
			commit: func() {
				backupCommitted.Store(true)
				close(release)
			},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !backupCommitted.Load() || primaryCommitted.Load() || !primaryDiscarded.Load() {
		t.Errorf("backup committed=%v, primary committed=%v discarded=%v",
			backupCommitted.Load(), primaryCommitted.Load(), primaryDiscarded.Load())
	}
	if ft.specLaunched.Load() != 1 || ft.specWins.Load() != 1 {
		t.Errorf("spec counters: launched=%d wins=%d", ft.specLaunched.Load(), ft.specWins.Load())
	}
	if got := ft.attempts[phaseMap].Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestCancellationMidMerge: cancelling the context while reducers are
// merging spilled runs must abort the run promptly, join every attempt
// goroutine and leak no spill files — Live() counts the store's
// outstanding files and must be 0 whether the run succeeded or not.
func TestCancellationMidMerge(t *testing.T) {
	in := spillProbeRelation(t, 4000)
	store, err := NewTempSpillStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cfg := smallConfig()
	cfg.SpillBudgetBytes = 1 << 10
	cfg.Spill = store

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := groupJob(in, 2)
	orig := job.Reduce
	job.Reduce = func(key uint64, groups [][]relation.Tuple, rctx *ReduceContext) {
		cancel() // fire mid-merge, with sources still open
		orig(key, groups, rctx)
	}

	before := runtime.NumGoroutine()
	_, err = Run(ctx, cfg, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if live := store.Live(); live != 0 {
		t.Errorf("%d spill files leaked after cancellation", live)
	}
	// Every attempt goroutine must have exited; poll briefly since
	// runtime bookkeeping lags goroutine exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before Run, %d after", before, now)
	}
}

// TestPanickingTaskFailsTheRun: a panic in a Reduce (or Map) function
// is the attempt's error, not the process's end. It names job, phase,
// task and attempt and carries the panic value and stack; it is not
// retried (one attempt of the panicking task however large the budget);
// and the run winds down as on any attempt error — every goroutine
// joined, every spill file released — at any worker count, in memory
// and out of core.
func TestPanickingTaskFailsTheRun(t *testing.T) {
	in := spillProbeRelation(t, 4000)
	for _, phase := range []string{"reduce", "map"} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			for _, budget := range []int64{0, 1 << 10} {
				store, err := NewTempSpillStore("")
				if err != nil {
					t.Fatal(err)
				}
				cfg := smallConfig()
				cfg.MaxParallelWorkers = workers
				cfg.SpillBudgetBytes = budget
				cfg.Spill = store

				job := groupJob(in, 3)
				var calls atomic.Int64
				if phase == "reduce" {
					orig := job.Reduce
					job.Reduce = func(key uint64, groups [][]relation.Tuple, rctx *ReduceContext) {
						if key == 17 {
							calls.Add(1)
							panic("reducer bug on key 17")
						}
						orig(key, groups, rctx)
					}
				} else {
					// Late in a large task, so that under a budget the attempt
					// has partial spill runs of its own to discard.
					cfg.TuplesPerMapTask = 1000
					job.Inputs[0].Map = func(tu relation.Tuple, emit Emitter) {
						if tu[2].Float64() == 3500*0.75 {
							calls.Add(1)
							relation.MustSchema().MustLookup("no such column")
						}
						emit(uint64(tu[0].Int64()))
					}
				}

				before := runtime.NumGoroutine()
				res, err := Run(context.Background(), cfg, job)
				where := fmt.Sprintf("%s panic, workers=%d budget=%d", phase, workers, budget)
				if err == nil || res != nil {
					t.Fatalf("%s: Run returned %v, %v; want the panic as an error", where, res, err)
				}
				msg := err.Error()
				for _, want := range []string{"mr: job group: " + phase + " task ", " attempt 0 panicked: ", "fault_test.go"} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s: error lacks %q:\n%s", where, want, msg)
					}
				}
				var te *TaskError
				if errors.As(err, &te) || isRetryable(err) || calls.Load() != 1 {
					t.Errorf("%s: the panic was retried (%d calls, retryable=%v)", where, calls.Load(), isRetryable(err))
				}
				if live := store.Live(); live != 0 {
					t.Errorf("%s: %d spill files left", where, live)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if now := runtime.NumGoroutine(); now > before {
					t.Errorf("%s: goroutines leaked: %d before Run, %d after", where, before, now)
				}
				store.Close()
			}
		}
	}
}
