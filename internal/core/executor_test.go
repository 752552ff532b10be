package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schedule"
)

// TestExecuteErrorPaths pins the executor's failure control flow over
// a shared pool: whichever phase the error surfaces in — schedule
// validation, dispatch, a running job, a stalled plan — the call
// returns a nil result and that error, every unit it acquired is back
// in the pool, and no goroutine it started outlives it.
func TestExecuteErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := newTestDB(t, randRelation("A", 40, 12, rng), randRelation("B", 30, 12, rng))
	job := func(name string, rels ...string) PlannedJob {
		return PlannedJob{
			Name:     name,
			Conds:    predicate.Conjunction{predicate.C(rels[0], "a", predicate.EQ, rels[1], "a")},
			RelOrder: rels,
			Kind:     KindHashEqui,
			Reducers: 2,
			Units:    4,
		}
	}
	twoJobs := []PlannedJob{job("err-j1", "A", "B"), job("err-j2", "B", "A")}
	sched := func(ids ...string) *schedule.Plan {
		tasks := make([]schedule.Task, len(ids))
		for i, id := range ids {
			tasks[i] = schedule.Task{ID: id, Profile: []float64{1}}
		}
		p, err := schedule.Schedule(tasks, 8)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Every attempt of map task 0 is killed: the budget runs out.
	mapKills := &mr.FaultPlan{Faults: []mr.Fault{{Kind: mr.FaultKillMap, Task: 0, Attempt: -1}}}

	cases := []struct {
		name  string
		ctx   context.Context
		jobs  []PlannedJob
		sched *schedule.Plan
		setup func(pl *Planner)
		check func(err error) bool
		want  string
	}{
		{
			// err-j1 is already running when err-j2 fails to build: the
			// call must drain it before returning.
			name: "unknown relation beside a running sibling",
			jobs: []PlannedJob{twoJobs[0], job("err-j2", "nosuch", "B")},
			want: `no relation "nosuch"`,
		},
		{
			name: "dependency cycle",
			jobs: []PlannedJob{job("err-j1", "err-j2", "A"), job("err-j2", "err-j1", "B")},
			want: "stalled with 0/2 jobs done",
		},
		{name: "job with no units", jobs: []PlannedJob{twoJobs[0], func() PlannedJob {
			j := twoJobs[1]
			j.Units = 0
			return j
		}()}, want: "job err-j2 has 0 units"},
		{name: "schedule short of a job", jobs: twoJobs, sched: sched("err-j1"),
			want: "schedule places 1 tasks for 2 planned jobs"},
		{name: "schedule names an unknown job", jobs: twoJobs, sched: sched("err-j1", "ghost"),
			want: `schedule places unknown job "ghost"`},
		{name: "context cancelled before the call", ctx: cancelled, jobs: twoJobs,
			check: func(err error) bool { return errors.Is(err, context.Canceled) }, want: "context.Canceled"},
		{
			name: "task out of attempts",
			jobs: twoJobs[:1],
			setup: func(pl *Planner) {
				pl.Config.Faults = mapKills
			},
			check: func(err error) bool { var te *mr.TaskError; return errors.As(err, &te) },
			want:  "*mr.TaskError",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewSharedUnitPool(8, nil)
			pl := testPlanner(8)
			pl.Pool = pool
			if tc.setup != nil {
				tc.setup(pl)
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			before := runtime.NumGoroutine()
			res, err := pl.ExecuteContext(ctx, &Plan{Query: &query.Query{Name: "err"}, Jobs: tc.jobs, Schedule: tc.sched}, db)
			if res != nil {
				t.Errorf("result = %+v, want nil", res)
			}
			switch {
			case err == nil:
				t.Fatalf("no error, want %s", tc.want)
			case tc.check != nil && !tc.check(err):
				t.Errorf("error = %v, want %s", err, tc.want)
			case tc.check == nil && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error = %v, want it to contain %q", err, tc.want)
			}
			if n := pool.InUse(); n != 0 {
				t.Errorf("%d units still held after the failed call", n)
			}
			// A job goroutine hands its result to the dispatch loop and
			// then exits; give the scheduler a moment to retire it.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines before the call, %d after", before, n)
			}
		})
	}
}

// BenchmarkThetaBandJob runs the shuffle-bound case end to end through
// the engine: a 60 k-row relation band-joined with itself (t1.bt < t2.bt
// < t1.bt+5) as one Hilbert job on 16 reducers, where nearly all the
// work is carrying the ~390 k replicated pairs from emit to the
// reducers' range probes.
func BenchmarkThetaBandJob(b *testing.B) {
	schema := relation.MustSchema(
		relation.Column{Name: "bt", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindInt},
		relation.Column{Name: RowIDColumn, Kind: relation.KindInt},
	)
	rng := rand.New(rand.NewSource(17))
	t1, t2 := relation.New("t1", schema), relation.New("t2", schema)
	for i := 0; i < 60000; i++ {
		row := relation.Tuple{relation.Int(rng.Int63n(61 * 86400)), relation.Int(rng.Int63n(3600)), relation.Int(int64(i))}
		t1.MustAppend(row)
		t2.MustAppend(row)
	}
	conds := predicate.Conjunction{
		predicate.C("t1", "bt", predicate.LT, "t2", "bt"),
		predicate.C("t1", "bt", predicate.GT, "t2", "bt").WithOffsets(5, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		job, err := BuildThetaJob("band", []*relation.Relation{t1, t2}, conds, 16)
		if err != nil {
			b.Fatal(err)
		}
		res, err := mr.Run(context.Background(), mr.DefaultConfig(), job)
		if err != nil {
			b.Fatal(err)
		}
		pairs += res.Metrics.PairsEmitted
	}
	b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkSmallJob is the fixed cost of a job on one line: a 2 000-row
// relation share-grid joined with itself on 96 reducers by one worker,
// through ExecuteContext — about a hundred task attempts over a few
// thousand pairs and two thousand result rows, so building the job,
// scheduling its attempts and assembling the output outweigh the join.
func BenchmarkSmallJob(b *testing.B) {
	t1 := randRelation("t1", 2000, 2000, rand.New(rand.NewSource(23)))
	t2 := randRelation("t2", 2000, 2000, rand.New(rand.NewSource(23)))
	db, err := NewDB(500, 1, t1, t2)
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustNew("small", []string{"t1", "t2"}, []predicate.Condition{
		predicate.C("t1", "a", predicate.EQ, "t2", "a"),
		predicate.C("t1", "b", predicate.LT, "t2", "b"),
	})
	cfg := mr.DefaultConfig()
	cfg.MaxParallelWorkers = 1
	pl := NewPlanner(cfg, 96)
	plan := &Plan{Query: q, Jobs: []PlannedJob{{
		Name: "small-j1", Conds: q.Conditions, RelOrder: []string{"t1", "t2"},
		Kind: KindShareGrid, Reducers: 96, Units: 96,
	}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pl.ExecuteContext(context.Background(), plan, db)
		if err != nil {
			b.Fatal(err)
		}
		if res.Output.Cardinality() == 0 {
			b.Fatal("empty join")
		}
	}
}
