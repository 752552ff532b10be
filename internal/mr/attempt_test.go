package mr

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// quickSpeculation lowers the straggler floor to floor and arms
// speculation from a phase's first completed attempt on, for the rest
// of the test.
func quickSpeculation(t *testing.T, floor time.Duration) {
	oldFloor, oldMin := specFloor, specMinSamples
	specFloor, specMinSamples = floor, 1
	t.Cleanup(func() { specFloor, specMinSamples = oldFloor, oldMin })
}

// waitGoroutines polls until the goroutine count is back to `before`;
// runtime bookkeeping lags a goroutine's exit.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestAttemptsRunOnTheirWorker: a phase of 2 000 one-tuple map tasks at
// two workers has the two workers alive and nothing per attempt — every
// map call sees at most the test's goroutines, the caller's wait and the
// workers.
func TestAttemptsRunOnTheirWorker(t *testing.T) {
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64(i % 50)
	}
	job := countJob(intsRelation("in", vals...), 4)
	var peak atomic.Int64
	job.Inputs[0].Map = func(tu relation.Tuple, emit Emitter) {
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n) // racing stores lose a sample, never invent one
		}
		emit(uint64(tu[0].Int64()))
	}
	cfg := smallConfig()
	cfg.TuplesPerMapTask = 1
	cfg.MaxParallelWorkers = 2

	before := runtime.NumGoroutine()
	res := mustRun(t, cfg, job)
	if res.Metrics.MapTasks != 2000 || res.Metrics.MapAttempts != 2000 {
		t.Fatalf("%d map tasks, %d attempts; want 2000 of each", res.Metrics.MapTasks, res.Metrics.MapAttempts)
	}
	if got, limit := peak.Load(), int64(before+cfg.MaxParallelWorkers); got > limit {
		t.Errorf("%d goroutines alive inside a map attempt; %d before the run + %d workers = %d",
			got, before, cfg.MaxParallelWorkers, limit)
	}
}

// TestRoundJoinsTheLoser: whichever of a straggling primary and its
// backup succeeds second has its output discarded, not committed, and
// the task does not return until it has exited — so a loser never touches
// the engine's state after its task is over.
func TestRoundJoinsTheLoser(t *testing.T) {
	quickSpeculation(t, time.Millisecond)
	for _, winner := range []int{0, 1} {
		ft := newFaultRuntime(nil, &Job{Name: "join"}, 1, 1, nil)
		ft.recordDur(phaseMap, time.Millisecond)

		backupStarted, winnerCommitted := make(chan struct{}), make(chan struct{})
		var committed, discarded, exited [2]atomic.Bool
		before := runtime.NumGoroutine()
		err := ft.runTask(context.Background(), phaseMap, 0, nil, func(ctx context.Context, attempt int, _ *obs.Shard) (attemptOutcome, error) {
			defer exited[attempt].Store(true)
			switch {
			case attempt == 1:
				close(backupStarted)
			case attempt == winner:
				<-backupStarted // a primary that wins still straggled into a backup
			}
			if attempt != winner {
				<-winnerCommitted
				time.Sleep(2 * time.Millisecond) // the task must wait this out
			}
			return attemptOutcome{
				commit: func() {
					committed[attempt].Store(true)
					if attempt == winner {
						close(winnerCommitted)
					}
				},
				discard: func() { discarded[attempt].Store(true) },
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		loser := 1 - winner
		if !committed[winner].Load() || discarded[winner].Load() {
			t.Errorf("winner %d: committed=%v discarded=%v", winner, committed[winner].Load(), discarded[winner].Load())
		}
		if committed[loser].Load() || !discarded[loser].Load() || !exited[loser].Load() {
			t.Errorf("winner %d: loser committed=%v discarded=%v exited=%v when the task returned",
				winner, committed[loser].Load(), discarded[loser].Load(), exited[loser].Load())
		}
		if l, w := ft.specLaunched.Load(), ft.specWins.Load(); l != 1 || w != int64(winner) {
			t.Errorf("winner %d: speculative launched=%d wins=%d", winner, l, w)
		}
		waitGoroutines(t, before)
	}
}

// TestCancellationDuringInlineAttempt: an attempt interrupted by its
// context ends the task with the context's error — not retried, not
// wrapped in a TaskError — and leaves no goroutine, whether or not a
// backup was running beside it.
func TestCancellationDuringInlineAttempt(t *testing.T) {
	quickSpeculation(t, time.Millisecond)
	for _, withBackup := range []bool{false, true} {
		ft := newFaultRuntime(nil, &Job{Name: "cancel"}, 1, 1, nil)
		if withBackup {
			ft.recordDur(phaseReduce, time.Millisecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		before := runtime.NumGoroutine()
		err := ft.runTask(ctx, phaseReduce, 3, nil, func(actx context.Context, attempt int, _ *obs.Shard) (attemptOutcome, error) {
			// Cancel once every attempt this case expects is inside.
			if n := calls.Add(1); withBackup == (n == 2) {
				cancel()
			}
			<-actx.Done()
			return attemptOutcome{}, actx.Err()
		})
		var te *TaskError
		if !errors.Is(err, context.Canceled) || errors.As(err, &te) {
			t.Errorf("backup=%v: runTask returned %v, want the bare context error", withBackup, err)
		}
		if want := map[bool]int64{false: 1, true: 2}[withBackup]; calls.Load() != want {
			t.Errorf("backup=%v: %d attempts ran, want %d", withBackup, calls.Load(), want)
		}
		waitGoroutines(t, before)
	}
}

// TestTaskAttemptAllocations pins what the attempt layer itself costs a
// task that commits at its first attempt: nothing, with the straggler
// timer armed or not — a job of 1 600 one-tuple map tasks pays it 1 600
// times.
func TestTaskAttemptAllocations(t *testing.T) {
	for _, armed := range []bool{false, true} {
		ft := newFaultRuntime(nil, &Job{Name: "allocs"}, 1, 1, nil)
		ft.durs[phaseMap] = make([]time.Duration, 0, 4096) // the baseline's growth is not per task
		if armed {
			for i := 0; i < specMinSamples; i++ {
				ft.recordDur(phaseMap, time.Microsecond)
			}
		}
		ctx := context.Background()
		out := attemptOutcome{commit: func() {}}
		fn := func(context.Context, int, *obs.Shard) (attemptOutcome, error) { return out, nil }
		got := testing.AllocsPerRun(1000, func() {
			if err := ft.runTask(ctx, phaseMap, 0, nil, fn); err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("armed=%v: %v allocations per task attempt, want 0", armed, got)
		}
	}
}
