package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

func testPlanner(kp int) *Planner {
	return NewPlanner(testConfig(), kp)
}

func TestPlanAndExecuteChain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randRelation("A", 50, 15, rng)
	b := randRelation("B", 40, 15, rng)
	c := randRelation("C", 30, 15, rng)
	db := newTestDB(t, a, b, c)
	q := query.MustNew("chain", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	pl := testPlanner(16)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) == 0 || plan.EstimatedMakespan <= 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	// Every condition covered exactly by the union of job edges.
	covered := map[int]bool{}
	for _, j := range plan.Jobs {
		for _, id := range j.EdgeIDs {
			covered[id] = true
		}
		if j.Reducers < 1 || j.Reducers > 16 {
			t.Errorf("job %s reducers %d out of range", j.Name, j.Reducers)
		}
		if j.Units < j.Reducers {
			t.Errorf("job %s units %d < reducers %d", j.Name, j.Units, j.Reducers)
		}
	}
	for _, id := range q.ConditionIDs() {
		if !covered[id] {
			t.Errorf("condition %d uncovered", id)
		}
	}
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRS := resultSet(res.Output), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("executed result mismatch: %d vs %d rows: %v",
			got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
	}
	if res.Makespan <= 0 {
		t.Error("no measured makespan")
	}
	if res.ShuffleBytes <= 0 {
		t.Error("no shuffle accounting")
	}
}

// Random end-to-end property: Plan+Execute equals Naive for random
// query shapes (chains, extra conditions forming cycles) and kP values.
func TestPlannerRandomEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.GE, predicate.GT, predicate.NE}
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(2)
		names := []string{"A", "B", "C"}[:m]
		rels := make([]*relation.Relation, m)
		for i := range rels {
			rels[i] = randRelation(names[i], 15+rng.Intn(20), 8, rng)
		}
		var conds []predicate.Condition
		for i := 0; i+1 < m; i++ {
			conds = append(conds, predicate.Condition{
				Left: names[i], LeftColumn: "a",
				Op:    ops[rng.Intn(len(ops))],
				Right: names[i+1], RightColumn: "a",
			})
		}
		if m == 3 && rng.Intn(2) == 0 { // close the triangle
			conds = append(conds, predicate.Condition{
				Left: names[0], LeftColumn: "b", Op: ops[rng.Intn(len(ops))],
				Right: names[2], RightColumn: "b",
			})
		}
		db := newTestDB(t, rels...)
		q, err := query.New("rq", names, conds)
		if err != nil {
			t.Fatal(err)
		}
		kp := 2 + rng.Intn(14)
		pl := testPlanner(kp)
		plan, err := pl.Plan(q, db)
		if err != nil {
			t.Fatalf("trial %d (%s, kp=%d): %v", trial, q, kp, err)
		}
		res, err := pl.Execute(plan, db)
		if err != nil {
			t.Fatalf("trial %d (%s, kp=%d): %v", trial, q, kp, err)
		}
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, wantRS := resultSet(res.Output), resultSet(want)
		if !wantRS.Equal(got) {
			t.Fatalf("trial %d (%s, kp=%d, %d jobs): mismatch %d vs %d: %v",
				trial, q, kp, len(plan.Jobs), got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
	}
}

func TestPlannerSelfJoinAliases(t *testing.T) {
	// Q1-style self-join: three aliases of one table.
	rng := rand.New(rand.NewSource(41))
	base := randRelation("calls", 25, 10, rng)
	db := newTestDB(t, base)
	if err := db.Alias("t1", "calls"); err != nil {
		t.Fatal(err)
	}
	if err := db.Alias("t2", "calls"); err != nil {
		t.Fatal(err)
	}
	q := query.MustNew("self", []string{"t1", "t2"}, []predicate.Condition{
		predicate.C("t1", "a", predicate.LE, "t2", "a"),
		predicate.C("t1", "b", predicate.GE, "t2", "b"),
	})
	pl := testPlanner(8)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRS := resultSet(res.Output), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("self-join mismatch: %d vs %d rows", got.Len(), wantRS.Len())
	}
}

func TestPlanEquiShortcut(t *testing.T) {
	// A pure equi pair should plan as hash-equi, not Hilbert.
	rng := rand.New(rand.NewSource(43))
	a := randRelation("A", 60, 10, rng)
	b := randRelation("B", 60, 10, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("eq", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.EQ, "B", "a"),
	})
	pl := testPlanner(8)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(plan.Jobs))
	}
	if plan.Jobs[0].Kind != KindHashEqui {
		t.Errorf("kind = %v, want hash-equi", plan.Jobs[0].Kind)
	}
}

func TestPlanString(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := newTestDB(t, randRelation("A", 10, 5, rng), randRelation("B", 10, 5, rng))
	q := query.MustNew("s", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	plan, err := testPlanner(4).Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	if !strings.Contains(s, "plan for s") || !strings.Contains(s, "kR=") {
		t.Errorf("String() = %q", s)
	}
}

func TestPlannerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := newTestDB(t, randRelation("A", 5, 5, rng), randRelation("B", 5, 5, rng))
	q := query.MustNew("v", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	pl := testPlanner(0)
	if _, err := pl.Plan(q, db); err == nil {
		t.Error("kp=0 accepted")
	}
	pl = testPlanner(4)
	if _, err := pl.Execute(&Plan{Query: q}, db); err == nil {
		t.Error("empty plan accepted")
	}
	// Unknown relation in query.
	q2 := query.MustNew("v2", []string{"A", "Z"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "Z", "a"),
	})
	if _, err := pl.Plan(q2, db); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestPlanCoverRejectsBadCovers: a cover with an empty set, an unknown
// condition ID or an uncovered condition is an error, never a partial
// plan; a cover naming one condition twice, or a set out of order, is
// the same cover.
func TestPlanCoverRejectsBadCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := newTestDB(t, randRelation("A", 20, 10, rng), randRelation("B", 20, 10, rng), randRelation("C", 20, 10, rng))
	q := query.MustNew("cov", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	pl := testPlanner(8)
	for _, tc := range []struct {
		name  string
		cover [][]int
		want  string
	}{
		{"empty set", [][]int{{1, 2}, {}}, "empty"},
		{"unknown id", [][]int{{1, 2, 3}}, "condition 3"},
		{"zero id", [][]int{{0}, {1, 2}}, "condition 0"},
		{"missed condition", [][]int{{1}}, "condition 2"},
		{"no sets", nil, "condition 1"},
	} {
		plan, err := pl.PlanCover(q, db, tc.cover)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: PlanCover(%v) = %v, %v; want an error naming %q", tc.name, tc.cover, plan, err, tc.want)
		}
	}
	if _, err := testPlanner(0).PlanCover(q, db, [][]int{{1, 2}}); err == nil {
		t.Error("kp=0 accepted")
	}
	plan, err := pl.PlanCover(q, db, [][]int{{2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 1 || len(plan.Jobs[0].EdgeIDs) != 2 || plan.Jobs[0].EdgeIDs[0] != 1 {
		t.Errorf("cover {2,1,2} planned %v, want one job over [1 2]", plan)
	}
}

// Resource awareness: with fewer processing units the estimated
// makespan must not improve.
func TestPlanKPMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := randRelation("A", 80, 20, rng)
	b := randRelation("B", 80, 20, rng)
	c := randRelation("C", 80, 20, rng)
	for _, r := range []*relation.Relation{a, b, c} {
		r.VolumeMultiplier = 1e5
	}
	db := newTestDB(t, a, b, c)
	q := query.MustNew("kp", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	wide, err := testPlanner(32).Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := testPlanner(4).Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Cover selection (greedy set cover by weight) precedes scheduling,
	// as in the paper's two-phase pipeline, so strict monotonicity in
	// kP is not guaranteed — but a narrow cluster must never appear
	// substantially faster.
	if narrow.EstimatedMakespan < wide.EstimatedMakespan*0.75 {
		t.Errorf("narrow kP estimated much faster: %v vs %v",
			narrow.EstimatedMakespan, wide.EstimatedMakespan)
	}
}

func TestCanonicalizeResult(t *testing.T) {
	r := relation.New("x", relation.MustSchema(
		relation.Column{Name: "b.v", Kind: relation.KindInt},
		relation.Column{Name: "a.v", Kind: relation.KindInt},
	))
	r.MustAppend(relation.Tuple{relation.Int(1), relation.Int(2)})
	c := CanonicalizeResult(r)
	if c.Schema.Column(0).Name != "a.v" {
		t.Errorf("first column = %s", c.Schema.Column(0).Name)
	}
	if c.Tuples[0][0].Int64() != 2 || c.Tuples[0][1].Int64() != 1 {
		t.Error("values not permuted with columns")
	}
}

func TestExactQuerySelectivity(t *testing.T) {
	a := relation.New("A", relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt}))
	b := relation.New("B", relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt}))
	for i := 0; i < 10; i++ {
		a.MustAppend(relation.Tuple{relation.Int(int64(i))})
		b.MustAppend(relation.Tuple{relation.Int(int64(i))})
	}
	db := newTestDB(t, a, b)
	q := query.MustNew("sel", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "v", predicate.EQ, "B", "v"),
	})
	sel, err := ExactQuerySelectivity(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0.1 {
		t.Errorf("selectivity = %v, want 0.1", sel)
	}
	ops := InequalityFuncs(q)
	if len(ops) != 0 {
		t.Errorf("equality query reports inequality funcs %v", ops)
	}
	q2 := query.MustNew("sel2", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "v", predicate.LT, "B", "v"),
		predicate.C("A", "v", predicate.NE, "B", "v"),
	})
	ops = InequalityFuncs(q2)
	if len(ops) != 2 {
		t.Errorf("ops = %v", ops)
	}
}
