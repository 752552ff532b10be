package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
)

// TestExecuteLimitKeepsFirstRows runs a two-job plan joined by the
// rid-merge, whose merged result is hashed and cut, and a hand-built
// cascade, whose final job's reducers cap it, at keep 0, 1, 7 and −1, on
// one worker or four, with no faults or kills, corruption and stragglers.
// Each run must keep exactly the first keep rows of the fault-free
// uncapped result and report its row count and hash, with every job's
// metrics, the modeled makespan and the merge cost those of the
// uncapped run under the same fault plan.
func TestExecuteLimitKeepsFirstRows(t *testing.T) {
	faults, err := mr.ParseFaultPlan("seed=5,map-kills=1,reduce-kills=2,corrupt-frames=1,stragglers=1,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name  string
		build func(*testing.T) (*Plan, *DB)
		merge int
	}{
		{"two jobs + rid-merge", independentPair, 1},
		{"cascade", dependentCascade, 0},
	} {
		plan, db := shape.build(t)
		ref, err := testPlanner(8).Execute(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		all := ref.Output.Tuples
		if ref.MergeCount != shape.merge || len(all) < 8 {
			t.Fatalf("%s: %d merge steps and %d rows; the test wants %d and at least 8", shape.name, ref.MergeCount, len(all), shape.merge)
		}
		if ref.Rows != len(all) || ref.Hash != relation.ContentHash(ref.Output) {
			t.Fatalf("%s: uncapped run reports %d rows, hash %#016x; its output has %d, hash %#016x",
				shape.name, ref.Rows, ref.Hash, len(all), relation.ContentHash(ref.Output))
		}
		for _, fp := range []*mr.FaultPlan{nil, faults} {
			// The plan's kills are charged to the clock: its model is
			// that of the uncapped run under the same plan.
			var model *ExecResult
			for _, workers := range []int{1, 4} {
				for _, keep := range []int{-1, 0, 1, 7} {
					pl := testPlanner(8)
					pl.Config.MaxParallelWorkers = workers
					if fp != nil {
						pl.Config.Faults = fp
						pl.Config.SpillBudgetBytes = 1 << 10
						pl.Config.Spill = tempSpill(t)
					}
					res, err := pl.ExecuteLimit(context.Background(), plan, db, keep)
					if err != nil {
						t.Fatal(err)
					}
					if model == nil {
						model = res
					}
					cell := fmt.Sprintf("%s faults=%v workers=%d keep=%d", shape.name, fp != nil, workers, keep)
					n := len(all)
					if keep >= 0 {
						n = min(n, keep)
					}
					if !sameRows(res.Output.Tuples, all[:n]) {
						t.Errorf("%s: kept %d rows, not the uncapped result's first %d", cell, len(res.Output.Tuples), n)
					}
					if res.Rows != ref.Rows || res.Hash != ref.Hash {
						t.Errorf("%s: %d rows, hash %#016x; uncapped %d, %#016x", cell, res.Rows, res.Hash, ref.Rows, ref.Hash)
					}
					if res.Makespan != model.Makespan || res.MergeTime != model.MergeTime || res.MergeCount != model.MergeCount {
						t.Errorf("%s: makespan %v, merge %v in %d steps; uncapped %v, %v in %d",
							cell, res.Makespan, res.MergeTime, res.MergeCount, model.Makespan, model.MergeTime, model.MergeCount)
					}
					if got, want := zeroWallMap(res.JobMetrics), zeroWallMap(model.JobMetrics); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: job metrics differ:\n%+v\n%+v", cell, got, want)
					}
				}
			}
		}
	}
}
