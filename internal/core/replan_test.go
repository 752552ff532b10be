package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// cascadeDB builds the cascaded-skew fixture: L and R carry Zipf(1.2)
// join keys (so their join's output amplifies the hot key), S is a
// uniform probe side joined against the intermediate. The relations
// model multi-GB volumes so the cost model wants enough reducers for
// hot keys to cross the split threshold.
func cascadeDB(t *testing.T) *DB {
	t.Helper()
	l := zipfKeyRelation("L", 1500, 1.2, 500, 71)
	r := zipfKeyRelation("R", 400, 1.2, 500, 72)
	s := randRelation("S", 400, 500, rand.New(rand.NewSource(73)))
	l.VolumeMultiplier = 4e9 / float64(l.EncodedSize())
	r.VolumeMultiplier = 1e9 / float64(r.EncodedSize())
	s.VolumeMultiplier = 1e9 / float64(s.EncodedSize())
	return newTestDB(t, l, r, s)
}

// cascadePlan hand-builds the two-stage plan the planner cannot emit
// from catalog statistics alone: j2 consumes j1's produced output, so
// at plan time no statistics exist for its left input — exactly the
// gap the runtime feedback loop closes.
func cascadePlan(t *testing.T, db *DB, kr int) *Plan {
	t.Helper()
	j1Conds := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	j2Conds := predicate.Conjunction{predicate.C("casc-j1", "L.k", predicate.EQ, "S", "a")}
	return &Plan{
		Query: &query.Query{Name: "casc"},
		Jobs: []PlannedJob{
			{
				Name:     "casc-j1",
				Conds:    j1Conds,
				RelOrder: []string{"L", "R"},
				Kind:     KindHashEqui,
				Reducers: kr,
				Units:    kr,
				Skew:     SkewPlanFor(db.Catalog, KindHashEqui, j1Conds, kr, skew.DefaultThreshold),
			},
			{
				Name:     "casc-j2",
				Conds:    j2Conds,
				RelOrder: []string{"casc-j1", "S"},
				Kind:     KindHashEqui,
				Reducers: kr,
				Units:    kr,
				// Skew nil: the static plan has no statistics for the
				// intermediate to derive one from.
			},
		},
	}
}

// TestFeedbackReplanCascade is the tentpole acceptance criterion: on a
// Zipf(1.2) cascade, feedback re-planning reduces the downstream job's
// BalanceRatio versus the static plan while the sorted output stays
// bit-identical, and the downstream job is reported as replanned.
func TestFeedbackReplanCascade(t *testing.T) {
	const kr = 16
	db := cascadeDB(t)

	run := func(disable bool) *ExecResult {
		pl := testPlanner(kr)
		pl.Opts.DisableReplan = disable
		res, err := pl.Execute(cascadePlan(t, db, kr), db)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(true)
	feedback := run(false)

	if got := static.Replanned; len(got) != 0 {
		t.Errorf("static run replanned %v", got)
	}
	if got := feedback.Replanned; len(got) != 1 || got[0] != "casc-j2" {
		t.Errorf("feedback run replanned %v, want [casc-j2]", got)
	}
	if !sameRows(sortedTuples(static.Output), sortedTuples(feedback.Output)) {
		t.Errorf("outputs differ: static %d tuples, feedback %d tuples",
			len(static.Output.Tuples), len(feedback.Output.Tuples))
	}
	sRatio := static.JobMetrics["casc-j2"].BalanceRatio
	fRatio := feedback.JobMetrics["casc-j2"].BalanceRatio
	if sRatio < 1.5*fRatio {
		t.Errorf("downstream balance: static %.2f vs feedback %.2f — want >= 1.5x reduction", sRatio, fRatio)
	}
	t.Logf("downstream balance ratio: static %.2f → feedback %.2f (reducers %d→, %d output tuples)",
		sRatio, fRatio, kr, len(feedback.Output.Tuples))
}

// TestFeedbackReplanDeterminism: the feedback loop preserves the
// executor's core invariant — identical output and per-job metrics for
// any worker count, because replanning reads only the measured stats
// of a job's own (always-completed-first) inputs.
func TestFeedbackReplanDeterminism(t *testing.T) {
	const kr = 12
	db := cascadeDB(t)
	var ref *ExecResult
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		pl := testPlanner(kr)
		pl.Config.MaxParallelWorkers = w
		res, err := pl.Execute(cascadePlan(t, db, kr), db)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !sameRows(res.Output.Tuples, ref.Output.Tuples) {
			t.Fatalf("workers=%d: output tuples differ from reference", w)
		}
		if !reflect.DeepEqual(zeroWallMap(res.JobMetrics), zeroWallMap(ref.JobMetrics)) {
			t.Errorf("workers=%d: job metrics differ", w)
		}
		if !reflect.DeepEqual(res.Replanned, ref.Replanned) {
			t.Errorf("workers=%d: replanned set differs: %v vs %v", w, res.Replanned, ref.Replanned)
		}
	}
	if len(ref.Replanned) == 0 {
		t.Error("feedback never fired on the cascade fixture")
	}
}

// compositeKeyRelation: tuples whose (k1, k2) combination is hot with
// fraction hotFrac; the rest draw both keys uniformly from [0, 50).
func compositeKeyRelation(name string, n int, hotFrac float64, seed int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k1", Kind: relation.KindInt},
		relation.Column{Name: "k2", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(seed))
	hot := int(float64(n) * hotFrac)
	for i := 0; i < n; i++ {
		k1, k2 := int64(7), int64(7)
		if i >= hot {
			k1, k2 = int64(rng.Intn(50)), int64(rng.Intn(50))
		}
		r.MustAppend(relation.Tuple{
			relation.Int(k1), relation.Int(k2), relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// TestCompositeSkewSplit is the composite-key acceptance criterion: a
// two-condition equi join with a hot composite value gets a split plan
// (it no longer falls back to plain hashing), with identical output
// and a materially better balance ratio.
func TestCompositeSkewSplit(t *testing.T) {
	const kr = 16
	l := compositeKeyRelation("L", 3000, 0.3, 81)
	r := compositeKeyRelation("R", 600, 0.3, 82)
	db := newTestDB(t, l, r)
	conds := predicate.Conjunction{
		predicate.C("L", "k1", predicate.EQ, "R", "k1"),
		predicate.C("L", "k2", predicate.EQ, "R", "k2"),
	}
	rel := func(name string) *relation.Relation {
		rr, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	plan := SkewPlanFor(db.Catalog, KindHashEqui, conds, kr, skew.DefaultThreshold)
	if plan == nil {
		t.Fatal("composite-key equi join got no skew plan — still falling back to plain hashing")
	}
	base, err := BuildHashEquiJob("comp-base", rel("L"), rel("R"), conds, kr, nil)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := BuildHashEquiJob("comp-skew", rel("L"), rel("R"), conds, kr, plan)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Partitioner == nil {
		t.Fatal("composite skew plan produced no partitioner")
	}
	bres, sres := runJob(t, base), runJob(t, skewed)
	if !sameRows(sortedTuples(bres.Output), sortedTuples(sres.Output)) {
		t.Errorf("outputs differ: baseline %d tuples, skew-aware %d tuples",
			len(bres.Output.Tuples), len(sres.Output.Tuples))
	}
	if bres.Metrics.BalanceRatio < 2*sres.Metrics.BalanceRatio {
		t.Errorf("balance ratio: baseline %.2f vs composite-split %.2f — want >= 2x reduction",
			bres.Metrics.BalanceRatio, sres.Metrics.BalanceRatio)
	}
	t.Logf("composite balance: baseline %.2f → split %.2f (%d output tuples)",
		bres.Metrics.BalanceRatio, sres.Metrics.BalanceRatio, len(sres.Output.Tuples))
}

// TestCompositeSkewPlanGates: uniform composite keys produce no plan.
func TestCompositeSkewPlanGates(t *testing.T) {
	l := compositeKeyRelation("L", 2000, 0, 91)
	r := compositeKeyRelation("R", 500, 0, 92)
	db := newTestDB(t, l, r)
	conds := predicate.Conjunction{
		predicate.C("L", "k1", predicate.EQ, "R", "k1"),
		predicate.C("L", "k2", predicate.EQ, "R", "k2"),
	}
	if p := SkewPlanFor(db.Catalog, KindHashEqui, conds, 16, 0); p != nil {
		t.Errorf("uniform composite keys produced a skew plan: %+v", p)
	}
}

// TestMergeTreeAccounting is the merge-cost regression: the measured
// makespan's merge component must equal MergeCost summed over the
// merge tree MergeAll actually performs — not a plan-order chain.
func TestMergeTreeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := randRelation("A", 60, 12, rng)
	b := randRelation("B", 50, 12, rng)
	c := randRelation("C", 40, 12, rng)
	d := randRelation("D", 30, 12, rng)
	db := newTestDB(t, a, b, c, d)
	rel := func(name string) *relation.Relation {
		rr, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	mkJob := func(name, l, r string) PlannedJob {
		return PlannedJob{
			Name:     name,
			Conds:    predicate.Conjunction{predicate.C(l, "a", predicate.EQ, r, "a")},
			RelOrder: []string{l, r},
			Kind:     KindHashEqui,
			Reducers: 4,
			Units:    4,
		}
	}
	plan := &Plan{
		Query: &query.Query{Name: "mtree"},
		Jobs: []PlannedJob{
			mkJob("mtree-j1", "A", "B"),
			mkJob("mtree-j2", "B", "C"),
			mkJob("mtree-j3", "C", "D"),
		},
	}
	pl := testPlanner(12)
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce the outputs independently (the engine is deterministic
	// for a fixed job spec) and walk MergeAll's tree.
	var outputs []*relation.Relation
	for _, pj := range plan.Jobs {
		job, err := BuildHashEquiJob(pj.Name, rel(pj.RelOrder[0]), rel(pj.RelOrder[1]), pj.Conds, pj.Reducers, nil)
		if err != nil {
			t.Fatal(err)
		}
		run, err := mr.Run(context.Background(), testConfig(), job)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, run.Output)
	}
	_, steps, err := MergeAll("mtree", outputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("merge steps = %d, want 2", len(steps))
	}
	var want float64
	for _, st := range steps {
		want += cost.MergeCost(pl.Config.Rates(), st.LeftBytes, st.RightBytes)
	}
	if res.MergeCount != len(steps) {
		t.Errorf("MergeCount = %d, want %d", res.MergeCount, len(steps))
	}
	if res.MergeTime != want {
		t.Errorf("MergeTime = %v, want tree-charged %v", res.MergeTime, want)
	}
	if res.Makespan < res.MergeTime {
		t.Errorf("Makespan %v excludes merge component %v", res.Makespan, res.MergeTime)
	}
}

// TestCascadeMergeSubsumption: a consumed intermediate must not
// re-enter the final merge — the cascade's last output IS the result.
func TestCascadeMergeSubsumption(t *testing.T) {
	db := cascadeDB(t)
	pl := testPlanner(8)
	res, err := pl.Execute(cascadePlan(t, db, 8), db)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeCount != 0 {
		t.Errorf("cascade merged %d times, want 0 (j2 subsumes j1)", res.MergeCount)
	}
	if res.MergeTime != 0 {
		t.Errorf("cascade charged merge time %v", res.MergeTime)
	}
	// The output schema is the consumer's: prefixed j1 columns plus S.
	if _, ok := res.Output.Schema.Lookup("casc-j1.L.k"); !ok {
		t.Error("cascade output lacks the intermediate's columns")
	}
}
