package repro

// Engine-level micro-benchmarks: the parallel partitioned shuffle
// inside one job, skew-aware partitioning, reducer-local join
// evaluation, concurrent plan execution across jobs and string joins.
// The paper's tables and figures are not benchmarked here:
// internal/bench's TestQuickTablesGolden regenerates every one of them
// on each `go test`, and `go run ./cmd/thetabench` prints the full
// series.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
	"repro/internal/workloads"
)

func shuffleJob(n, fanout, reducers int) *mr.Job {
	in := relation.New("S", relation.MustSchema(
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		in.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(1 << 20)))})
	}
	return &mr.Job{
		Name: "shuffle-bench",
		Inputs: []mr.Input{{Rel: in, Map: func(t relation.Tuple, emit mr.Emitter) {
			v := uint64(t[0].Int64())
			for f := 0; f < fanout; f++ {
				emit(v*31 + uint64(f))
			}
		}}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ctx.AddWork(int64(len(groups[0])))
		},
		NumReducers:  reducers,
		OutputName:   "out",
		OutputSchema: relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt}),
	}
}

// BenchmarkShuffle measures one map-heavy job whose cost is dominated
// by partitioning, merging and sorting shuffled pairs.
func BenchmarkShuffle(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := mr.DefaultConfig()
			cfg.TuplesPerMapTask = 1024
			cfg.MaxParallelWorkers = workers
			job := shuffleJob(60000, 4, 32) // mr.Run never mutates the job
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mr.Run(context.Background(), cfg, job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkewedShuffle compares the plain hash partitioner against
// the skew-aware partitioner on a Zipf(1.2)-keyed equi-join: the
// baseline's hottest reducer serialises the hot key's join work, the
// skew-aware variant splits it across sub-reducers. Each sub-benchmark
// reports the measured reducer balance ratio (MaxReducerInput / mean)
// alongside ns/op.
func BenchmarkSkewedShuffle(b *testing.B) {
	zipfRel := func(name string, n int, seed int64) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "k", Kind: relation.KindInt},
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, 1.2, 1, 4095)
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(z.Uint64())),
				relation.Int(int64(rng.Intn(1 << 16))),
			})
		}
		return r
	}
	const kr = 32
	db, err := core.NewDB(1000, 1, zipfRel("L", 30000, 7), zipfRel("R", 3000, 8))
	if err != nil {
		b.Fatal(err)
	}
	rel := func(name string) *relation.Relation {
		r, err := db.Relation(name)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	conds := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	baseJob, err := core.BuildHashEquiJob("skewbench-base", rel("L"), rel("R"), conds, kr, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan := core.SkewPlanFor(db.Catalog, core.KindHashEqui, conds, kr, skew.DefaultThreshold)
	if plan == nil {
		b.Fatal("no skew plan on Zipf(1.2) keys")
	}
	skewJob, err := core.BuildHashEquiJob("skewbench-skew", rel("L"), rel("R"), conds, kr, plan)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		job  *mr.Job
	}{{"baseline", baseJob}, {"skew-aware", skewJob}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := mr.DefaultConfig()
			cfg.TuplesPerMapTask = 2048
			var balance float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mr.Run(context.Background(), cfg, mode.job)
				if err != nil {
					b.Fatal(err)
				}
				balance = res.Metrics.BalanceRatio
			}
			b.ReportMetric(balance, "balance")
		})
	}
}

// BenchmarkReduceJoin measures reducer-local join evaluation on
// reduce-heavy configurations: few reducers, large per-group candidate
// lists, so the inner loops dominate over map/shuffle. Both
// sub-benchmarks run the compiled evaluator (hash probes on
// equalities, intersected sorted-run ranges on band predicates) and
// report the CombinationsChecked metric alongside ns/op and allocs/op.
func BenchmarkReduceJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(name string, n, domain int) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
		))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(rng.Intn(domain))),
				relation.Int(int64(rng.Intn(domain))),
			})
		}
		return r
	}
	db, err := core.NewDB(1000, 1, mk("A", 4000, 6000), mk("B", 3000, 6000), mk("C", 2000, 300))
	if err != nil {
		b.Fatal(err)
	}
	rel := func(name string) *relation.Relation {
		r, err := db.Relation(name)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	// Band theta-join: two range conditions on the same column, the
	// sorted-run intersection's best case.
	thetaConds := predicate.Conjunction{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("A", "a", predicate.GT, "B", "a").WithOffsets(0, -30),
	}
	// Equi-connected 3-way with a theta residual: hash probes at each
	// extension step.
	gridConds := predicate.Conjunction{
		predicate.C("A", "b", predicate.EQ, "C", "b"),
		predicate.C("B", "b", predicate.EQ, "C", "b"),
		predicate.C("A", "a", predicate.LT, "B", "a"),
	}
	for _, v := range []struct {
		name  string
		build func() (*mr.Job, error)
	}{
		{"theta-band/indexed", func() (*mr.Job, error) {
			job, err := core.BuildThetaJob("rjbench-theta", []*relation.Relation{rel("A"), rel("B")}, thetaConds, 4)
			return job, err
		}},
		{"share-grid/indexed", func() (*mr.Job, error) {
			return core.BuildShareGridJob("rjbench-grid", []*relation.Relation{rel("C"), rel("A"), rel("B")}, gridConds, 8, nil)
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			job, err := v.build()
			if err != nil {
				b.Fatal(err)
			}
			cfg := mr.DefaultConfig()
			cfg.TuplesPerMapTask = 2048
			var combs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mr.Run(context.Background(), cfg, job)
				if err != nil {
					b.Fatal(err)
				}
				combs = res.Metrics.CombinationsChecked
			}
			b.ReportMetric(float64(combs), "combinations")
		})
	}
}

func concurrentPlanFixture(b *testing.B, kp, units int) (*core.Planner, *core.Plan, *core.DB) {
	b.Helper()
	mk := func(name string, n int, rng *rand.Rand) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
		))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.Int(int64(rng.Intn(4000))),
				relation.Int(int64(rng.Intn(4000))),
			})
		}
		return r
	}
	rng := rand.New(rand.NewSource(9))
	db, err := core.NewDB(300, 1, mk("A", 2500, rng), mk("B", 2500, rng), mk("C", 2500, rng))
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustNew("bench2", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 256
	pl := core.NewPlanner(cfg, kp)
	// Band-join conjunctions (x < y AND x > y-4) keep the outputs and
	// the final merge small, so the measurement is dominated by the two
	// jobs' map/shuffle/reduce work.
	band := func(l, lc, r, rc string) predicate.Conjunction {
		return predicate.Conjunction{
			predicate.C(l, lc, predicate.LT, r, rc),
			predicate.C(l, lc, predicate.GT, r, rc).WithOffsets(0, -4),
		}
	}
	plan := &core.Plan{
		Query: q,
		Jobs: []core.PlannedJob{
			{Name: "bench2-j1", Conds: band("A", "a", "B", "a"), RelOrder: []string{"A", "B"},
				Kind: core.KindHilbertTheta, Reducers: 4, Units: units},
			{Name: "bench2-j2", Conds: band("B", "b", "C", "b"), RelOrder: []string{"B", "C"},
				Kind: core.KindHilbertTheta, Reducers: 4, Units: units},
		},
	}
	return pl, plan, db
}

// BenchmarkConcurrentPlan measures executing a 2-independent-job plan.
// In the serial variant each job demands the full K_P allotment, so
// the unit semaphore admits one at a time; in the concurrent variant
// each takes half the units and the jobs overlap.
func BenchmarkConcurrentPlan(b *testing.B) {
	const kp = 8
	for _, mode := range []struct {
		name  string
		units int
	}{{"serial", kp}, {"concurrent", kp / 2}} {
		b.Run(mode.name, func(b *testing.B) {
			pl, plan, db := concurrentPlanFixture(b, kp, mode.units)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pl.Execute(plan, db)
				if err != nil {
					b.Fatal(err)
				}
				if mode.units < kp && res.MaxConcurrentJobs < 2 {
					b.Fatalf("expected overlap, got MaxConcurrentJobs=%d", res.MaxConcurrentJobs)
				}
			}
		})
	}
}

// BenchmarkStringJoinJob is the end-to-end companion of
// internal/core's BenchmarkStringJoin: dictionary-keyed string joins run
// as whole MapReduce jobs on the interned mobile workload, so the
// interned shuffle volume shows up beside the job time (shuffle-MB/op
// reports the per-iteration network volume). Job ns/op mixes map,
// shuffle and output materialisation with the condition evaluation;
// BenchmarkStringJoin isolates the reducer.
func BenchmarkStringJoinJob(b *testing.B) {
	inputs := func(tuples int, names []string) []*relation.Relation {
		cfg := workloads.DefaultMobileConfig()
		cfg.Tuples = tuples
		cfg.Stations = 200
		db, err := workloads.MobileDB(cfg, 1000)
		if err != nil {
			b.Fatal(err)
		}
		rels := make([]*relation.Relation, len(names))
		for i, name := range names {
			if rels[i], err = db.Relation(name); err != nil {
				b.Fatal(err)
			}
		}
		return rels
	}
	equiConds := predicate.Conjunction{
		predicate.C("t1", "bs", predicate.EQ, "t2", "bs"),
		predicate.C("t1", "bt", predicate.LT, "t2", "bt"),
	}
	bandConds := predicate.Conjunction{
		predicate.C("t1", "bs", predicate.LE, "t3", "bs"),
		predicate.C("t2", "bs", predicate.GE, "t3", "bs"),
		predicate.C("t1", "d", predicate.EQ, "t2", "d"),
	}
	for _, v := range []struct {
		name   string
		tuples int
		rels   []string
		conds  predicate.Conjunction
	}{
		// The 3-way band touches cubically many combinations, so it
		// runs on a smaller table than the pairwise equi-join.
		{"string-equi/interned", 3000, []string{"t1", "t2"}, equiConds},
		{"string-band/interned", 240, []string{"t1", "t2", "t3"}, bandConds},
	} {
		b.Run(v.name, func(b *testing.B) {
			job, err := core.BuildThetaJob("sjbench", inputs(v.tuples, v.rels), v.conds, 4)
			if err != nil {
				b.Fatal(err)
			}
			cfg := mr.DefaultConfig()
			cfg.TuplesPerMapTask = 2048
			var shuffleBytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mr.Run(context.Background(), cfg, job)
				if err != nil {
					b.Fatal(err)
				}
				shuffleBytes = res.Metrics.ShuffleBytes
			}
			b.ReportMetric(float64(shuffleBytes)/1e6, "shuffle-MB")
		})
	}
}
