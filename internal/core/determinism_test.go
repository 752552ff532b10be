package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// zeroWall strips the measured wall-clock fields from a metrics value
// before a determinism comparison: wall times legitimately vary across
// runs and worker counts; the determinism contract covers byte-level
// metrics only (see mr.WallTime).
func zeroWall(m mr.Metrics) mr.Metrics {
	m.Wall = mr.WallTime{}
	// Attempt and speculation counts are wall-clock dependent (retry
	// and straggler scheduling follow real time); strip them like Wall.
	m.MapAttempts = 0
	m.ReduceAttempts = 0
	m.SpeculativeLaunched = 0
	m.SpeculativeWins = 0
	return m
}

// zeroWallMap is zeroWall over a JobMetrics map.
func zeroWallMap(ms map[string]mr.Metrics) map[string]mr.Metrics {
	out := make(map[string]mr.Metrics, len(ms))
	for k, v := range ms {
		out[k] = zeroWall(v)
	}
	return out
}

// TestExecutionDeterminism asserts the engine's core invariant: for a
// fixed job specification, Result.Output and the byte-level Metrics
// are identical across worker counts — the parallel partitioned
// shuffle must not let goroutine interleaving leak into results. Run
// under -race this also exercises the engine's synchronisation.
func TestExecutionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a := randRelation("A", 90, 25, rng)
	b := randRelation("B", 70, 25, rng)
	c := randRelation("C", 50, 25, rng)
	db := newTestDB(t, a, b, c)
	rel := func(name string) *relation.Relation {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cases := []struct {
		name  string
		build func() (*mr.Job, error)
	}{
		{"theta", func() (*mr.Job, error) {
			job, err := BuildThetaJob("theta", []*relation.Relation{rel("A"), rel("B")},
				predicate.Conjunction{predicate.C("A", "a", predicate.LT, "B", "a")}, 6, 1<<12)
			return job, err
		}},
		{"hash-equi", func() (*mr.Job, error) {
			return BuildHashEquiJob("hashequi", rel("A"), rel("B"),
				predicate.Conjunction{predicate.C("A", "a", predicate.EQ, "B", "a")}, 6, nil)
		}},
		{"share-grid", func() (*mr.Job, error) {
			return BuildShareGridJob("sharegrid", []*relation.Relation{rel("A"), rel("B"), rel("C")},
				predicate.Conjunction{
					predicate.C("A", "a", predicate.EQ, "B", "a"),
					predicate.C("B", "b", predicate.EQ, "C", "b"),
				}, 6, nil)
		}},
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref *mr.Result
			var refWorkers int
			for _, w := range workerCounts {
				job, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig()
				cfg.MaxParallelWorkers = w
				res, err := mr.Run(context.Background(), cfg, job)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if ref == nil {
					ref, refWorkers = res, w
					continue
				}
				if got, want := len(res.Output.Tuples), len(ref.Output.Tuples); got != want {
					t.Fatalf("workers=%d vs %d: %d vs %d output tuples", w, refWorkers, got, want)
				}
				for i := range res.Output.Tuples {
					if !sameRow(res.Output.Tuples[i], ref.Output.Tuples[i]) {
						t.Fatalf("workers=%d vs %d: tuple %d differs: %v vs %v",
							w, refWorkers, i, res.Output.Tuples[i], ref.Output.Tuples[i])
					}
				}
				if res.Metrics.PairsEmitted != ref.Metrics.PairsEmitted {
					t.Errorf("workers=%d: PairsEmitted %d != %d", w, res.Metrics.PairsEmitted, ref.Metrics.PairsEmitted)
				}
				if res.Metrics.ShuffleBytes != ref.Metrics.ShuffleBytes {
					t.Errorf("workers=%d: ShuffleBytes %d != %d", w, res.Metrics.ShuffleBytes, ref.Metrics.ShuffleBytes)
				}
				if res.Metrics.MaxReducerInput != ref.Metrics.MaxReducerInput {
					t.Errorf("workers=%d: MaxReducerInput %d != %d", w, res.Metrics.MaxReducerInput, ref.Metrics.MaxReducerInput)
				}
				if !reflect.DeepEqual(zeroWall(res.Metrics), zeroWall(ref.Metrics)) {
					t.Errorf("workers=%d: full metrics differ:\n%+v\n%+v", w, res.Metrics, ref.Metrics)
				}
			}
		})
	}
}

// TestExecutionDeterminismSpill re-asserts the worker-count invariant
// with out-of-core execution forced on: a tiny SpillBudgetBytes pushes
// every map task's shuffle output through the spill store, and the
// output plus all byte-level metrics must still be bit-identical to
// the fully in-memory run, at every worker count. Run under -race this
// also exercises the spill/merge synchronisation.
func TestExecutionDeterminismSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	a := randRelation("A", 90, 25, rng)
	b := randRelation("B", 70, 25, rng)
	db := newTestDB(t, a, b)
	rel := func(name string) *relation.Relation {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name  string
		build func() (*mr.Job, error)
	}{
		{"theta", func() (*mr.Job, error) {
			job, err := BuildThetaJob("theta-sp", []*relation.Relation{rel("A"), rel("B")},
				predicate.Conjunction{predicate.C("A", "a", predicate.LT, "B", "a")}, 6, 1<<12)
			return job, err
		}},
		{"hash-equi", func() (*mr.Job, error) {
			return BuildHashEquiJob("hashequi-sp", rel("A"), rel("B"),
				predicate.Conjunction{predicate.C("A", "a", predicate.EQ, "B", "a")}, 6, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			inMem, err := mr.Run(context.Background(), testConfig(), job)
			if err != nil {
				t.Fatal(err)
			}
			var ref *mr.Result
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				job, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig()
				cfg.MaxParallelWorkers = w
				cfg.SpillBudgetBytes = 2048
				res, err := mr.Run(context.Background(), cfg, job)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if res.Metrics.SpillBytes <= 0 {
					t.Fatalf("workers=%d: budget did not force a spill", w)
				}
				// Bit-identical to the in-memory run, including order.
				if got, want := len(res.Output.Tuples), len(inMem.Output.Tuples); got != want {
					t.Fatalf("workers=%d: %d vs %d output tuples vs in-memory", w, got, want)
				}
				for i := range res.Output.Tuples {
					if !sameRow(res.Output.Tuples[i], inMem.Output.Tuples[i]) {
						t.Fatalf("workers=%d: tuple %d differs from in-memory run", w, i)
					}
				}
				if ref == nil {
					ref = res
					continue
				}
				if !reflect.DeepEqual(zeroWall(res.Metrics), zeroWall(ref.Metrics)) {
					t.Errorf("workers=%d: metrics differ with spill on:\n%+v\n%+v",
						w, zeroWall(res.Metrics), zeroWall(ref.Metrics))
				}
			}
		})
	}
}

// TestExecutionDeterminismUnitPools asserts the unit pool changes
// nothing observable: a full planned execution produces bit-identical
// output and byte-level metrics whether the units come from the
// default pool (Planner.Pool nil), a SharedUnitPool passed in, or a
// budget-capped view of a shared pool (which forces different dispatch
// interleavings by admitting fewer jobs at once).
func TestExecutionDeterminismUnitPools(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randRelation("A", 80, 20, rng)
	b := randRelation("B", 60, 20, rng)
	c := randRelation("C", 40, 20, rng)
	db := newTestDB(t, a, b, c)
	q := query.MustNew("pools", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	const kp = 8
	plan, err := testPlanner(kp).Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	pools := []struct {
		name string
		pool UnitPool
	}{
		{"default", nil},
		{"shared", NewSharedUnitPool(kp, nil)},
		{"budget", WithBudget(NewSharedUnitPool(kp, nil), kp/2)},
	}
	var ref *ExecResult
	var refName string
	for _, tc := range pools {
		pl := testPlanner(kp)
		pl.Pool = tc.pool
		res, err := pl.Execute(plan, db)
		if err != nil {
			t.Fatalf("%s pool: %v", tc.name, err)
		}
		if ref == nil {
			ref, refName = res, tc.name
			continue
		}
		if !resultSet(ref.Output).Equal(resultSet(res.Output)) {
			t.Errorf("%s vs %s pool: result sets differ (%d vs %d rows)",
				tc.name, refName, res.Output.Cardinality(), ref.Output.Cardinality())
		}
		if got, want := zeroWallMap(res.JobMetrics), zeroWallMap(ref.JobMetrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s vs %s pool: job metrics differ:\n%+v\n%+v", tc.name, refName, got, want)
		}
		if res.ShuffleBytes != ref.ShuffleBytes {
			t.Errorf("%s vs %s pool: ShuffleBytes %d != %d", tc.name, refName, res.ShuffleBytes, ref.ShuffleBytes)
		}
	}
	// The shared pools must have drained back to empty.
	for _, tc := range pools[1:] {
		var shared *SharedUnitPool
		switch p := tc.pool.(type) {
		case *SharedUnitPool:
			shared = p
		default:
			continue
		}
		if n := shared.InUse(); n != 0 {
			t.Errorf("%s pool leaked %d units", tc.name, n)
		}
	}
}

// TestSharedPoolCrossPlanCap executes two plans concurrently against
// one shared pool and asserts (via the pool's obs histogram) that
// their combined unit holdings never exceeded the pool capacity —
// the invariant the resident server depends on.
func TestSharedPoolCrossPlanCap(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := randRelation("A", 80, 20, rng)
	b := randRelation("B", 60, 20, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("cap", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	const kp = 6
	plan, err := testPlanner(kp).Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool := NewSharedUnitPool(kp, &obs.Obs{Metrics: reg})
	var ref *ExecResult
	if ref, err = testPlanner(kp).Execute(plan, db); err != nil {
		t.Fatal(err)
	}
	const plans = 4
	results := make([]*ExecResult, plans)
	errs := make([]error, plans)
	var wg sync.WaitGroup
	for i := 0; i < plans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl := testPlanner(kp)
			pl.Pool = WithBudget(pool, kp-1)
			results[i], errs[i] = pl.Execute(plan, db)
		}(i)
	}
	wg.Wait()
	for i := 0; i < plans; i++ {
		if errs[i] != nil {
			t.Fatalf("plan %d: %v", i, errs[i])
		}
		if !resultSet(ref.Output).Equal(resultSet(results[i].Output)) {
			t.Errorf("plan %d: result differs from solo execution", i)
		}
	}
	snap := reg.Histogram("core.pool.inuse").Snapshot()
	if snap.Count == 0 {
		t.Fatal("pool histogram recorded no acquisitions")
	}
	if snap.Max > int64(kp) {
		t.Errorf("combined unit holdings peaked at %d, exceeding K_P=%d", snap.Max, kp)
	}
	if n := pool.InUse(); n != 0 {
		t.Errorf("pool leaked %d units", n)
	}
}

// TestExecuteConcurrentIndependentJobs asserts that Execute overlaps
// independent planned jobs on the K_P units instead of running the
// plan as a serial cascade, and that the concurrent execution still
// matches the Naive reference result.
func TestExecuteConcurrentIndependentJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randRelation("A", 60, 18, rng)
	b := randRelation("B", 50, 18, rng)
	c := randRelation("C", 40, 18, rng)
	db := newTestDB(t, a, b, c)
	q := query.MustNew("pair", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	pl := testPlanner(8)
	plan := &Plan{
		Query: q,
		Jobs: []PlannedJob{
			{Name: "pair-j1", Conds: predicate.Conjunction{q.Conditions[0]}, RelOrder: []string{"A", "B"},
				Kind: KindHilbertTheta, Reducers: 3, Units: 4},
			{Name: "pair-j2", Conds: predicate.Conjunction{q.Conditions[1]}, RelOrder: []string{"B", "C"},
				Kind: KindHilbertTheta, Reducers: 3, Units: 4},
		},
	}
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxConcurrentJobs < 2 {
		t.Errorf("independent 2-job plan ran serially: MaxConcurrentJobs = %d", res.MaxConcurrentJobs)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRS := resultSet(res.Output), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("concurrent result mismatch: %d vs %d rows", got.Len(), wantRS.Len())
	}
}

// dependentCascade builds a two-job cascade: casc-j2 joins casc-j1's output
// back against B, so its step can only run once the intermediate
// relation exists.
func dependentCascade(t *testing.T) (*Plan, *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	a := randRelation("A", 40, 12, rng)
	b := randRelation("B", 30, 12, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("casc", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	return &Plan{
		Query: q,
		Jobs: []PlannedJob{
			{Name: "casc-j1", Conds: predicate.Conjunction{q.Conditions[0]}, RelOrder: []string{"A", "B"},
				Kind: KindHilbertTheta, Reducers: 2, Units: 8},
			{Name: "casc-j2", Conds: predicate.Conjunction{
				predicate.C("casc-j1", "A.a", predicate.LE, "B", "b"),
			}, RelOrder: []string{"casc-j1", "B"}, Kind: KindHilbertTheta, Reducers: 2, Units: 8},
		},
	}, db
}

// TestExecuteDependentJobsGate asserts that a job reading another
// planned job's output is gated on its completion and consumes the
// produced intermediate relation.
func TestExecuteDependentJobsGate(t *testing.T) {
	plan, db := dependentCascade(t)
	res, err := testPlanner(8).Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxConcurrentJobs != 1 {
		t.Errorf("dependent jobs overlapped: MaxConcurrentJobs = %d", res.MaxConcurrentJobs)
	}
	if len(res.JobMetrics) != 2 {
		t.Fatalf("expected 2 job metrics, got %d", len(res.JobMetrics))
	}
}

// TestExecutePlanWithFaultPlan: a retryable fault plan threaded through
// the planner config (kills, corruption, stragglers across the
// cascade's jobs) never changes the plan's output, and the fault
// telemetry aggregates into ExecResult and its Report.
func TestExecutePlanWithFaultPlan(t *testing.T) {
	plan, db := dependentCascade(t)
	clean, err := testPlanner(8).Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}

	pl := testPlanner(8)
	pl.Config.SpillBudgetBytes = 1 << 10
	faults, err := mr.ParseFaultPlan("seed=3,map-kills=1,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	pl.Config.Faults = faults
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !resultSet(clean.Output).Equal(resultSet(res.Output)) {
		t.Error("fault plan changed the plan output")
	}
	if res.TaskFailures == 0 {
		t.Error("planned kills not charged into TaskFailures")
	}
	if res.ChecksumFailures != 2 || res.FailoverReads != 2 {
		// One corruption consumed once per job (each job resolves its
		// own injector from the shared plan).
		t.Errorf("corruption telemetry: checksum=%d failover=%d, want 2/2",
			res.ChecksumFailures, res.FailoverReads)
	}
	if rep := res.Report(); !strings.Contains(rep, "fault tolerance:") {
		t.Errorf("report missing fault line:\n%s", rep)
	}
}
