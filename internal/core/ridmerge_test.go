package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestDBRejectsPermutedRids: a rid column must number the rows in
// order; the same ids in another order are an error naming the
// relation and the first row out of place.
func TestDBRejectsPermutedRids(t *testing.T) {
	r := relation.New("P", relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt},
		relation.Column{Name: RowIDColumn, Kind: relation.KindInt}))
	for _, id := range []int64{0, 1, 3, 2} {
		r.MustAppend(relation.Tuple{relation.Int(id * 10), relation.Int(id)})
	}
	_, err := NewDB(100, 1, r)
	if err == nil || !strings.Contains(err.Error(), "relation P row 2 ") {
		t.Errorf("permuted rids: err = %v, want one naming relation P row 2", err)
	}
}

// TestDBRejectsGappedRids: rids that are unique and ascending but skip
// a number do not index the rows either.
func TestDBRejectsGappedRids(t *testing.T) {
	r := relation.New("G", relation.MustSchema(relation.Column{Name: RowIDColumn, Kind: relation.KindInt}))
	for _, id := range []int64{0, 1, 2, 4, 5} {
		r.MustAppend(relation.Tuple{relation.Int(id)})
	}
	_, err := NewDB(100, 1, r)
	if err == nil || !strings.Contains(err.Error(), "relation G row 3 ") {
		t.Errorf("gapped rids: err = %v, want one naming relation G row 3", err)
	}
	// Numbered in order, the same column is accepted as it is.
	r.Tuples = r.Tuples[:3]
	db, err := NewDB(100, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Relation("G"); got != r {
		t.Error("a valid rid column was rewritten")
	}
}

// fig4Plan is TestFig4MergePlan's query as a plan: three jobs over a
// five-relation chain whose outputs merge in two steps.
func fig4Plan(t *testing.T) (*Plan, *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	var rels []*relation.Relation
	for _, name := range []string{"R1", "R2", "R3", "R4", "R5"} {
		r := relation.New(name, relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt}))
		for i := 0; i < 18; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(10)))})
		}
		rels = append(rels, r)
	}
	db := newTestDB(t, rels...)
	q := query.MustNew("fig4", []string{"R1", "R2", "R3", "R4", "R5"}, []predicate.Condition{
		predicate.C("R1", "v", predicate.LE, "R2", "v"),
		predicate.C("R2", "v", predicate.LT, "R3", "v"),
		predicate.C("R3", "v", predicate.GE, "R4", "v"),
		predicate.C("R4", "v", predicate.NE, "R5", "v"),
	})
	return &Plan{Query: q, Jobs: []PlannedJob{
		{Name: "ei", Conds: predicate.Conjunction{q.Conditions[0], q.Conditions[1]}, RelOrder: []string{"R1", "R2", "R3"},
			Kind: KindHilbertTheta, Reducers: 4, Units: 4},
		{Name: "ej", Conds: predicate.Conjunction{q.Conditions[2]}, RelOrder: []string{"R3", "R4"},
			Kind: KindHilbertTheta, Reducers: 3, Units: 4},
		{Name: "ek", Conds: predicate.Conjunction{q.Conditions[3]}, RelOrder: []string{"R4", "R5"},
			Kind: KindHilbertTheta, Reducers: 3, Units: 4},
	}}, db
}

// twoKeyChain is a four-relation chain A–B–C–D covered by two jobs
// that overlap on B and C, so their merge keys on two rids.
func twoKeyChain(t *testing.T) (*Plan, *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	db := newTestDB(t, randRelation("A", 20, 6, rng), randRelation("B", 18, 6, rng),
		randRelation("C", 16, 6, rng), randRelation("D", 14, 6, rng))
	q := query.MustNew("chain4", []string{"A", "B", "C", "D"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LE, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "a"),
		predicate.C("C", "b", predicate.NE, "D", "b"),
	})
	return &Plan{Query: q, Jobs: []PlannedJob{
		{Name: "abc", Conds: predicate.Conjunction{q.Conditions[0], q.Conditions[1]}, RelOrder: []string{"A", "B", "C"},
			Kind: KindHilbertTheta, Reducers: 4, Units: 4},
		{Name: "bcd", Conds: predicate.Conjunction{q.Conditions[1], q.Conditions[2]}, RelOrder: []string{"B", "C", "D"},
			Kind: KindHilbertTheta, Reducers: 3, Units: 4},
	}}, db
}

// TestKeysOnlyMergeMatchesFullWidth is the oracle for the keys-only
// rid-merge: the jobs that feed the merge keep only rids and its last
// step gathers the result from the base relations. Each plan runs at
// keep −1, 0, 1 and 10, on one worker or four, with no faults or with
// the CI fault plan (kills, a corrupt spill frame and a straggler, its
// delay cut to 2 ms) under a 1 KiB spill budget. The kept rows and
// their order, the row count and the hash must be those of the same
// jobs run unprojected and merged full-width (mergeFullWidth), and so must
// every job's metrics and the merge's step count and cost; the makespan
// must not depend on keep. A traced cell's last merge-step span still
// names both operands and their sizes, and counts every result row.
func TestKeysOnlyMergeMatchesFullWidth(t *testing.T) {
	faults, err := mr.ParseFaultPlan("seed=7,map-kills=2,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name  string
		build func(*testing.T) (*Plan, *DB)
		steps int
	}{
		{"independent pair", independentPair, 1},
		{"Fig. 4", fig4Plan, 2},
		{"two-key chain", twoKeyChain, 1},
	} {
		plan, db := shape.build(t)
		for _, fp := range []*mr.FaultPlan{nil, faults} {
			for _, workers := range []int{1, 4} {
				pl := testPlanner(8)
				pl.Config.MaxParallelWorkers = workers
				if fp != nil {
					pl.Config.Faults = fp
					pl.Config.SpillBudgetBytes = 1 << 10
					pl.Config.Spill = tempSpill(t)
				}
				// The oracle: every job as built, unprojected, merged full-width.
				outputs := make([]*relation.Relation, len(plan.Jobs))
				metrics := make(map[string]mr.Metrics, len(plan.Jobs))
				for i := range plan.Jobs {
					job, cfg, err := pl.buildPlannedJob(&plan.Jobs[i], db, nil)
					if err != nil {
						t.Fatal(err)
					}
					res, err := mr.Run(context.Background(), cfg, job)
					if err != nil {
						t.Fatal(err)
					}
					outputs[i], metrics[job.Name] = res.Output, zeroWall(res.Metrics)
				}
				want, steps, err := mergeFullWidth(plan.Query.Name, outputs)
				if err != nil {
					t.Fatal(err)
				}
				if len(steps) != shape.steps || want.Cardinality() < 10 {
					t.Fatalf("%s: the oracle merges in %d steps to %d rows; the test wants %d steps and at least 10 rows",
						shape.name, len(steps), want.Cardinality(), shape.steps)
				}
				var mergeTime float64
				for _, st := range steps {
					mergeTime += cost.MergeCost(mr.PaperRates(), st.LeftBytes, st.RightBytes)
				}
				var makespan float64
				for _, keep := range []int{-1, 0, 1, 10} {
					cell := fmt.Sprintf("%s faults=%v workers=%d keep=%d", shape.name, fp != nil, workers, keep)
					o := &obs.Obs{Tracer: obs.NewTracer()}
					res, err := pl.ExecuteLimit(obs.NewContext(context.Background(), o), plan, db, keep)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					n := want.Cardinality()
					if keep >= 0 {
						n = min(n, keep)
					}
					if !res.Output.Schema.Equal(want.Schema) {
						t.Errorf("%s: result schema %v, the oracle's %v", cell, res.Output.Schema, want.Schema)
					}
					if !sameRows(res.Output.Tuples, want.Tuples[:n]) {
						t.Errorf("%s: kept %d rows, not the oracle's first %d", cell, len(res.Output.Tuples), n)
					}
					if !reflect.DeepEqual(res.Output.Dicts, want.Dicts) || res.Output.VolumeMultiplier != want.VolumeMultiplier {
						t.Errorf("%s: result dictionaries or volume multiplier differ from the oracle's", cell)
					}
					if res.Rows != want.Cardinality() || res.Hash != relation.ContentHash(want) {
						t.Errorf("%s: %d rows, hash %#016x; the oracle has %d, %#016x",
							cell, res.Rows, res.Hash, want.Cardinality(), relation.ContentHash(want))
					}
					if got := zeroWallMap(res.JobMetrics); !reflect.DeepEqual(got, metrics) {
						t.Errorf("%s: job metrics differ from the unprojected jobs':\n%+v\n%+v", cell, got, metrics)
					}
					if res.MergeCount != len(steps) || res.MergeTime != mergeTime {
						t.Errorf("%s: merge of %d steps costs %v; the oracle's %d cost %v",
							cell, res.MergeCount, res.MergeTime, len(steps), mergeTime)
					}
					if keep < 0 {
						makespan = res.Makespan
					} else if res.Makespan != makespan {
						t.Errorf("%s: makespan %v, uncapped %v", cell, res.Makespan, makespan)
					}
					var last *obs.TraceEvent
					for _, e := range o.Tracer.Events() {
						if e.Name == "merge-step" {
							last = &e
						}
					}
					if last == nil {
						t.Fatalf("%s: no merge-step span", cell)
					}
					for _, arg := range []string{"left", "right", "leftBytes", "rightBytes"} {
						if _, ok := last.Args[arg]; !ok {
							t.Errorf("%s: the last merge-step span has no %s", cell, arg)
						}
					}
					if got := last.Args["outTuples"]; got != want.Cardinality() {
						t.Errorf("%s: the last merge-step span counts %v rows, want %d", cell, got, want.Cardinality())
					}
				}
			}
		}
	}
}

// TestKeysOnlyMergeRefusesForeignRows: the merge gathers a row only
// from where its rid says it is. A job whose output is not its base
// relations' rows side by side is not projected, and a rid that is not
// a row index of its relation fails the merge; neither reads a row.
func TestKeysOnlyMergeRefusesForeignRows(t *testing.T) {
	plan, db := independentPair(t)
	a, _ := db.Relation("A")
	job, _, err := testPlanner(8).buildPlannedJob(&plan.Jobs[0], db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An extra column no base relation has in that place.
	cols := append(job.OutputSchema.Columns(), relation.Column{Name: "A.extra", Kind: relation.KindInt})
	job.OutputSchema = relation.MustSchema(cols...)
	if err := projectRids(job, db); err == nil || job.Project != nil {
		t.Errorf("job with a foreign column: err = %v, Project = %v; want an error and no projection", err, job.Project)
	}
	rids := func(name string, rels ...string) *relation.Relation {
		var cols []relation.Column
		for _, r := range rels {
			cols = append(cols, relation.Column{Name: r + "." + RowIDColumn, Kind: relation.KindInt})
		}
		return relation.New(name, relation.MustSchema(cols...))
	}
	for _, bad := range []int64{-1, int64(a.Cardinality())} {
		left, right := rids("l", "A", "B"), rids("r", "B", "C")
		left.MustAppend(relation.Tuple{relation.Int(bad), relation.Int(0)})
		right.MustAppend(relation.Tuple{relation.Int(0), relation.Int(0)})
		if _, _, _, err := gatherMerge("q", left, right, db, -1); err == nil || !strings.Contains(err.Error(), "not a row of A") {
			t.Errorf("rid %d of A: err = %v, want one saying it is not a row of A", bad, err)
		}
	}
}

// TestGatherMergeHashesAsMergeOutputs: the rid-merge's final step,
// which hashes each left row's base rows once for all its matches,
// counts and hashes the rows MergeOutputs gathers from the full-width
// outputs, and keeps the first of them in its order. Every left row
// matches ~20 right rows, and there are enough left rows for four
// shards.
func TestGatherMergeHashesAsMergeOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := newTestDB(t, randRelation("A", 90, 1000, rng), randRelation("B", 30, 1000, rng), randRelation("C", 80, 1000, rng))
	var base []*relation.Relation
	for _, name := range []string{"A", "B", "C"} {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, r)
	}
	// ridRel returns a rid-only output over rels and its full-width form.
	ridRel := func(name string, rels ...*relation.Relation) (rids, full *relation.Relation) {
		var cols []relation.Column
		for _, r := range rels {
			cols = append(cols, relation.Column{Name: r.Name + "." + RowIDColumn, Kind: relation.KindInt})
		}
		return relation.New(name, relation.MustSchema(cols...)), relation.New(name, prefixedSchema(rels))
	}
	add := func(rids, full *relation.Relation, rels []*relation.Relation, ids ...int) {
		row, wide := relation.Tuple{}, relation.Tuple{}
		for i, id := range ids {
			row = append(row, relation.Int(int64(id)))
			wide = append(wide, rels[i].Tuples[id]...)
		}
		rids.MustAppend(row)
		full.MustAppend(wide)
	}
	left, fullLeft := ridRel("l", base[0], base[1])
	right, fullRight := ridRel("r", base[1], base[2])
	for i := 0; i < 600; i++ {
		add(left, fullLeft, base[:2], rng.Intn(90), rng.Intn(30))
	}
	for i := 0; i < 600; i++ {
		add(right, fullRight, base[1:], rng.Intn(30), rng.Intn(80))
	}
	want, err := MergeOutputs("q", fullLeft, fullRight)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := relation.SumRowHashes(want.Tuples)
	if want.Cardinality() < 10*len(left.Tuples) {
		t.Fatalf("%d merged rows from %d left rows; the test wants many matches per left row", want.Cardinality(), len(left.Tuples))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, keep := range []int{-1, 7} {
			out, rows, sum, err := gatherMerge("q", left, right, db, keep)
			if err != nil {
				t.Fatal(err)
			}
			if rows != want.Cardinality() || sum != wantSum {
				t.Errorf("GOMAXPROCS %d keep %d: %d rows, row-hash sum %#x; MergeOutputs gathers %d, %#x",
					procs, keep, rows, sum, want.Cardinality(), wantSum)
			}
			kept := want.Tuples
			if keep >= 0 {
				kept = kept[:keep]
			}
			if !sameRows(out.Tuples, kept) {
				t.Errorf("GOMAXPROCS %d keep %d: the kept rows are not MergeOutputs' first %d", procs, keep, len(kept))
			}
		}
	}
}
