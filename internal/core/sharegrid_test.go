package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

func TestShareGridApplicable(t *testing.T) {
	// Q17 shape: two EQ conditions through part link all three relations.
	q17 := predicate.Conjunction{
		predicate.C("l", "pk", predicate.EQ, "p", "pk"),
		predicate.C("l2", "pk", predicate.EQ, "p", "pk"),
		predicate.C("l", "q", predicate.LE, "l2", "q"),
	}
	if !ShareGridApplicable(q17) {
		t.Error("Q17 shape not applicable")
	}
	// Theta-only: not applicable.
	if ShareGridApplicable(predicate.Conjunction{
		predicate.C("a", "x", predicate.LT, "b", "x"),
	}) {
		t.Error("theta-only accepted")
	}
	// EQ connects a-b but c only via theta: not applicable.
	if ShareGridApplicable(predicate.Conjunction{
		predicate.C("a", "x", predicate.EQ, "b", "x"),
		predicate.C("b", "y", predicate.LT, "c", "y"),
	}) {
		t.Error("partially-equi accepted")
	}
	// EQ with offsets is not hashable.
	if ShareGridApplicable(predicate.Conjunction{
		predicate.C("a", "x", predicate.EQ, "b", "x").WithOffsets(1, 0),
	}) {
		t.Error("offset EQ accepted")
	}
	if ShareGridApplicable(nil) {
		t.Error("empty accepted")
	}
}

// Single-class grid (Q17 shape): replication factor must be 1 — every
// relation knows the only dimension.
func TestShareGridNoReplicationWhenFullyLinked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randRelation("l", 60, 10, rng)
	p := randRelation("p", 20, 10, rng)
	l2 := randRelation("l2", 60, 10, rng)
	db := newTestDB(t, l, p, l2)
	conds := predicate.Conjunction{
		predicate.C("l", "a", predicate.EQ, "p", "a"),
		predicate.C("l2", "a", predicate.EQ, "p", "a"),
		predicate.C("l", "b", predicate.LE, "l2", "b"),
	}
	rl, _ := db.Relation("l")
	rp, _ := db.Relation("p")
	rl2, _ := db.Relation("l2")
	rels := []*relation.Relation{rl, rp, rl2}
	grid, err := newShareGrid(conds, rels)
	if err != nil {
		t.Fatal(err)
	}
	grid.assign(32)
	if rep := grid.replication(); rep != 1 {
		t.Errorf("replication = %v, want 1", rep)
	}
	job, err := BuildShareGridJob("sg", rels, conds, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	// No duplication: pairs emitted == total input tuples.
	if res.Metrics.PairsEmitted != int64(rl.Cardinality()+rp.Cardinality()+rl2.Cardinality()) {
		t.Errorf("pairs emitted = %d (input %d)", res.Metrics.PairsEmitted,
			rl.Cardinality()+rp.Cardinality()+rl2.Cardinality())
	}
	// Correctness against naive.
	q := query.MustNew("sg", []string{"l", "p", "l2"}, conds)
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRS := resultSet(res.Output), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("share grid mismatch: %d vs %d rows: %v",
			got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
	}
}

// Two-class grid (Q18 shape): c—o on custkey, o—l/l2 on orderkey.
func TestShareGridTwoDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randRelation("c", 25, 8, rng)
	o := randRelation("o", 40, 8, rng)
	l := randRelation("l", 50, 8, rng)
	db := newTestDB(t, c, o, l)
	conds := predicate.Conjunction{
		predicate.C("c", "a", predicate.EQ, "o", "a"),
		predicate.C("o", "b", predicate.EQ, "l", "b"),
		predicate.C("c", "b", predicate.GE, "l", "a"),
	}
	rc, _ := db.Relation("c")
	ro, _ := db.Relation("o")
	rl, _ := db.Relation("l")
	rels := []*relation.Relation{rc, ro, rl}
	for _, kr := range []int{1, 4, 9, 16} {
		job, err := BuildShareGridJob("sg2", rels, conds, kr, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mr.Run(context.Background(), testConfig(), job)
		if err != nil {
			t.Fatal(err)
		}
		q := query.MustNew("sg2", []string{"c", "o", "l"}, conds)
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, wantRS := resultSet(res.Output), resultSet(want)
		if !wantRS.Equal(got) {
			t.Fatalf("kr=%d: share grid mismatch %d vs %d: %v",
				kr, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
	}
}

// Random equi-connected queries with theta residuals: share grid must
// equal naive for every reducer count.
func TestShareGridRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	thetaOps := []predicate.Op{predicate.LT, predicate.LE, predicate.GE, predicate.GT, predicate.NE}
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(2)
		names := []string{"X", "Y", "Z"}[:m]
		rels := make([]*relation.Relation, m)
		floatAt := rng.Intn(m) // the equality class holds one float column
		for i := range rels {
			rels[i] = inMillions(randRelation(names[i], 20+rng.Intn(20), 5+rng.Intn(5), rng), i == floatAt)
		}
		var conds predicate.Conjunction
		for i := 0; i+1 < m; i++ {
			conds = append(conds, predicate.C(names[i], "a", predicate.EQ, names[i+1], "a"))
		}
		// Theta residual on a random pair.
		a, b := rng.Intn(m), rng.Intn(m)
		if a != b {
			conds = append(conds, predicate.C(names[min2(a, b)], "b",
				thetaOps[rng.Intn(len(thetaOps))], names[max2(a, b)], "b"))
		}
		db := newTestDB(t, rels...)
		ordered := make([]*relation.Relation, m)
		for i, n := range names {
			ordered[i], _ = db.Relation(n)
		}
		kr := 1 + rng.Intn(12)
		job, err := BuildShareGridJob("sgr", ordered, conds, kr, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mr.Run(context.Background(), testConfig(), job)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.New("sgr", names, conds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, wantRS := resultSet(res.Output), resultSet(want)
		if !wantRS.Equal(got) {
			t.Fatalf("trial %d (%s, kr=%d): mismatch %d vs %d", trial, q, kr, got.Len(), wantRS.Len())
		}
	}
}

// inMillions returns r with a moved into the millions, where an int and
// a float of one value print differently ("1000003", "1.000003e+06"),
// as a float column when asFloat.
func inMillions(r *relation.Relation, asFloat bool) *relation.Relation {
	kind := relation.KindInt
	if asFloat {
		kind = relation.KindFloat
	}
	out := relation.New(r.Name, relation.MustSchema(
		relation.Column{Name: "a", Kind: kind},
		relation.Column{Name: "b", Kind: relation.KindInt},
	))
	for _, t := range r.Tuples {
		a := relation.Int(t[0].Int64() + 1_000_000)
		if asFloat {
			a = relation.Float(float64(t[0].Int64() + 1_000_000))
		}
		out.MustAppend(relation.Tuple{a, t[1]})
	}
	return out
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestShareGridValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := newTestDB(t, randRelation("A", 10, 5, rng), randRelation("B", 10, 5, rng))
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	theta := predicate.Conjunction{predicate.C("A", "a", predicate.LT, "B", "a")}
	if _, err := BuildShareGridJob("x", []*relation.Relation{ra, rb}, theta, 4, nil); err == nil {
		t.Error("theta-only conjunction accepted")
	}
	if _, err := BuildShareGridJob("x", []*relation.Relation{ra}, nil, 4, nil); err == nil {
		t.Error("single relation accepted")
	}
}

func TestShareGridEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randRelation("A", 0, 5, rng)
	b := randRelation("B", 10, 5, rng)
	db := newTestDB(t, a, b)
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	conds := predicate.Conjunction{predicate.C("A", "a", predicate.EQ, "B", "a")}
	job, err := BuildShareGridJob("e", []*relation.Relation{ra, rb}, conds, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Cardinality() != 0 {
		t.Error("nonempty output from empty input")
	}
}

// The planner must pick the share grid for an equi-connected TPC-H-like
// query rather than the Hilbert cube.
func TestPlannerPicksShareGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	l := randRelation("l", 60, 10, rng)
	p := randRelation("p", 20, 10, rng)
	l2 := randRelation("l2", 60, 10, rng)
	for _, r := range []*relation.Relation{l, p, l2} {
		r.VolumeMultiplier = 1e6
	}
	db := newTestDB(t, l, p, l2)
	q := query.MustNew("q17ish", []string{"l", "p", "l2"}, []predicate.Condition{
		predicate.C("l", "a", predicate.EQ, "p", "a"),
		predicate.C("l2", "a", predicate.EQ, "p", "a"),
		predicate.C("l", "b", predicate.LE, "l2", "b"),
	})
	pl := testPlanner(32)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	hasShareGrid := false
	for _, j := range plan.Jobs {
		if j.Kind == KindShareGrid {
			hasShareGrid = true
		}
		if j.Kind == KindHilbertTheta {
			t.Errorf("planner used hilbert cube for equi-connected query: %v", plan)
		}
	}
	if !hasShareGrid && len(plan.Jobs) == 1 {
		t.Errorf("expected a share-grid job in %v", plan)
	}
	// End-to-end correctness.
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !resultSet(want).Equal(resultSet(res.Output)) {
		t.Error("share-grid plan result mismatch")
	}
}
