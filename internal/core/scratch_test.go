package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// lumpyRelation builds rows whose a values, 0 to values-1, come in
// runs of very different lengths — value v appears 16, 5 or 2 times as
// v%3 is 0, 1 or 2 — so reduce groups keyed on a go big, small and big
// again; b is uniform over [0, 40).
func lumpyRelation(name string, values int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	))
	for v := 0; v < values; v++ {
		for range []int{16, 5, 2}[v%3] {
			r.MustAppend(relation.Tuple{relation.Int(int64(v)), relation.Int(int64(rng.Intn(40)))})
		}
	}
	rng.Shuffle(len(r.Tuples), func(i, j int) { r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i] })
	return r
}

// TestReusedScratchMatchesFresh: reducers that reuse their buffers from
// group to group produce what buffers made fresh for every group do.
// Each job's groups go big, small and big again on one reducer, so a
// reused key column or sorted run is longer than the next group and a
// reused hash index was last filled with keys the next group lacks.
// Each job runs through Execute on one worker or four, with no faults
// or with the CI fault plan (kills, a corrupt spill frame and a
// straggler) under a 1 KiB spill budget. Its rows in order, Rows, Hash
// and job metrics must equal those of the same job run with every
// reduce call on a job built for it alone, handed copies of its groups;
// and its rows must be core.Naive's.
func TestReusedScratchMatchesFresh(t *testing.T) {
	faults, err := mr.ParseFaultPlan("seed=7,map-kills=2,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	db := newTestDB(t, lumpyRelation("A", 24, rng), lumpyRelation("B", 24, rng), lumpyRelation("C", 9, rng))
	for _, tc := range []struct {
		kind     JobKind
		rels     []string
		reducers int
		conds    []predicate.Condition
	}{
		{KindHashEqui, []string{"A", "B"}, 3, []predicate.Condition{
			predicate.C("A", "a", predicate.EQ, "B", "a"),
		}},
		{KindHilbertTheta, []string{"A", "B"}, 6, []predicate.Condition{
			predicate.C("A", "a", predicate.EQ, "B", "a"),
			predicate.C("A", "b", predicate.LT, "B", "b"),
		}},
		{KindHilbertTheta, []string{"A", "B"}, 5, []predicate.Condition{
			predicate.C("A", "b", predicate.LT, "B", "b"),
			predicate.C("A", "b", predicate.GT, "B", "b").WithOffsets(3, 0),
			predicate.C("A", "a", predicate.NE, "B", "a"),
		}},
		{KindShareGrid, []string{"A", "B", "C"}, 9, []predicate.Condition{
			predicate.C("A", "a", predicate.EQ, "B", "a"),
			predicate.C("B", "a", predicate.EQ, "C", "a"),
			predicate.C("A", "b", predicate.LE, "C", "b"),
		}},
	} {
		name := fmt.Sprintf("%v/%d", tc.kind, len(tc.conds))
		q := query.MustNew("q", tc.rels, tc.conds)
		plan := &Plan{Query: q, Jobs: []PlannedJob{{
			Name: "j", Conds: q.Conditions, RelOrder: tc.rels, Kind: tc.kind, Reducers: tc.reducers, Units: tc.reducers,
		}}}
		naive, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range []*mr.FaultPlan{nil, faults} {
			for _, workers := range []int{1, 4} {
				cell := fmt.Sprintf("%s faults=%v workers=%d", name, fp != nil, workers)
				pl := testPlanner(8)
				pl.Config.MaxParallelWorkers = workers
				if fp != nil {
					pl.Config.Faults = fp
					pl.Config.SpillBudgetBytes = 1 << 10
					pl.Config.Spill = tempSpill(t)
				}
				res, err := pl.Execute(plan, db)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				fresh, sizes := runFresh(t, pl, plan, db)
				if fp == nil && workers == 1 && !bigSmallBig(sizes) {
					t.Fatalf("%s: reduce calls saw groups of %v tuples, never big, small and big again", cell, sizes)
				}
				if !sameRows(res.Output.Tuples, fresh.Output.Tuples) {
					t.Errorf("%s: %d rows differ from the fresh-scratch run's %d", cell, len(res.Output.Tuples), len(fresh.Output.Tuples))
				}
				if h := relation.ContentHashOf(fresh.Output.Schema, fresh.Rows, fresh.RowHashSum); res.Rows != fresh.Rows || res.Hash != h {
					t.Errorf("%s: %d rows, hash %#016x; the fresh-scratch run has %d, %#016x", cell, res.Rows, res.Hash, fresh.Rows, h)
				}
				if got, want := zeroWallMap(res.JobMetrics), map[string]mr.Metrics{"j": zeroWall(fresh.Metrics)}; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: job metrics differ from the fresh-scratch run's:\n%+v\n%+v", cell, got, want)
				}
				if got, want := resultSet(res.Output), resultSet(naive); !got.Equal(want) || got.Len() == 0 {
					t.Errorf("%s: %d rows, Naive has %d; diff %v", cell, got.Len(), want.Len(), want.Diff(got, 5))
				}
			}
		}
	}
}

// runFresh runs the plan's one job as Execute builds it, except that
// every reduce call goes to a job built anew, on copies of its groups,
// so no buffer outlives a group. It returns the result and the size of
// every group reduced, in call order.
func runFresh(t *testing.T, pl *Planner, plan *Plan, db *DB) (*mr.Result, []int) {
	t.Helper()
	job, cfg, err := pl.buildPlannedJob(&plan.Jobs[0], db, nil)
	if err != nil {
		t.Fatal(err)
	}
	job.Result, job.Keep = true, -1
	var mu sync.Mutex
	var sizes []int
	job.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
		own, n := make([][]relation.Tuple, len(groups)), 0
		for i, g := range groups {
			own[i], n = slices.Clone(g), n+len(g)
		}
		mu.Lock()
		sizes = append(sizes, n)
		mu.Unlock()
		fresh, _, err := pl.buildPlannedJob(&plan.Jobs[0], db, nil)
		if err != nil {
			t.Error(err)
			return
		}
		fresh.Reduce(key, own, ctx)
	}
	res, err := mr.Run(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	return res, sizes
}

// bigSmallBig reports whether some group is smaller than one before it
// and one after it.
func bigSmallBig(sizes []int) bool {
	for j := 1; j+1 < len(sizes); j++ {
		if slices.Max(sizes[:j]) > sizes[j] && slices.Max(sizes[j+1:]) > sizes[j] {
			return true
		}
	}
	return false
}

// TestGroupEvalReuse: a groupEval handed back after a group serves the
// next one without allocating when that group is no larger — through
// key columns, a hash index, both sorted-run paths, dictionary keys and
// the probe buffers — and the idle groupEvals die with their joinEval:
// nothing outside the job keeps them.
func TestGroupEvalReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{indexMinSize, radixMinSize / 2, 4 * radixMinSize} {
		db := newTestDB(t, mixedRelation("A", n, 12, rng), mixedRelation("B", n, 12, rng), mixedRelation("C", n, 12, rng))
		rels := make([]*relation.Relation, 3)
		for i, name := range []string{"A", "B", "C"} {
			var err error
			if rels[i], err = db.Relation(name); err != nil {
				t.Fatal(err)
			}
		}
		a, b, c := rels[0], rels[1], rels[2]
		bound, err := bindConditions(predicate.Conjunction{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("A", "f", predicate.LT, "C", "f"),
			predicate.C("A", "f", predicate.GT, "C", "f").WithOffsets(2, 0),
			predicate.C("B", "t", predicate.NE, "C", "t"),
			predicate.C("B", "s", predicate.LE, "C", "s"),
		}, rels)
		if err != nil {
			t.Fatal(err)
		}
		je := newJoinEval(rels, bound)
		groups := [][]relation.Tuple{a.Tuples, b.Tuples, c.Tuples}
		ctx := &mr.ReduceContext{}
		matches := 0
		count := func([]int32) { matches++ }
		group := func() {
			ge := je.newGroupEval(groups)
			ge.run(ctx, count)
			je.release(ge)
		}
		group()
		first := matches
		if allocs := testing.AllocsPerRun(5, group); allocs != 0 {
			t.Errorf("n=%d: a second group of the same size allocates %v times", n, allocs)
		}
		if matches != 7*first || first == 0 {
			t.Errorf("n=%d: %d matches over seven runs of a group with %d", n, matches, first)
		}
		if len(je.idle) != 1 {
			t.Fatalf("n=%d: %d idle groupEvals after one group at a time, want 1", n, len(je.idle))
		}
		idle, cols := weak.Make(je.idle[0]), weak.Make(&je.idle[0].idx[2].cols.flat[0])
		je = nil
		runtime.GC()
		if idle.Value() != nil || cols.Value() != nil {
			t.Errorf("n=%d: an idle groupEval outlives its joinEval", n)
		}
	}
}
