package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

func testConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 32
	cfg.MapSlots = 8
	cfg.ReduceSlots = 8
	return cfg
}

// tempSpill returns a block store in a temp directory, closed when the
// test ends.
func tempSpill(t testing.TB) *dfs.BlockStore {
	t.Helper()
	store, err := dfs.NewBlockStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// randRelation builds a relation of n tuples with integer columns a, b
// drawn from [0, domain).
func randRelation(name string, n, domain int, rng *rand.Rand) *relation.Relation {
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

func newTestDB(t *testing.T, rels ...*relation.Relation) *DB {
	t.Helper()
	db, err := NewDB(500, 1, rels...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func resultSet(r *relation.Relation) *relation.ResultSet {
	rs := relation.NewResultSet()
	rs.AddAll(CanonicalizeResult(r).Tuples)
	return rs
}

func TestDBRowIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := newTestDB(t, randRelation("A", 10, 5, rng))
	a, err := db.Relation("A")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := a.Schema.Lookup(RowIDColumn)
	if !ok {
		t.Fatal("rid column missing")
	}
	seen := map[int64]bool{}
	for _, tup := range a.Tuples {
		id := tup[idx].Int64()
		if seen[id] {
			t.Fatal("duplicate rid")
		}
		seen[id] = true
	}
}

func TestDBValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randRelation("A", 5, 5, rng)
	if _, err := NewDB(100, 1, a, a); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := NewDB(100, 1, nil); err == nil {
		t.Error("nil relation accepted")
	}
	// Pre-existing rid column with duplicates must be rejected.
	bad := relation.New("B", relation.MustSchema(relation.Column{Name: "rid", Kind: relation.KindInt}))
	bad.MustAppend(relation.Tuple{relation.Int(1)})
	bad.MustAppend(relation.Tuple{relation.Int(1)})
	if _, err := NewDB(100, 1, bad); err == nil {
		t.Error("duplicate rid accepted")
	}
}

func TestDBAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := newTestDB(t, randRelation("A", 10, 5, rng))
	if err := db.Alias("A2", "A"); err != nil {
		t.Fatal(err)
	}
	a2, err := db.Relation("A2")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Name != "A2" || a2.Cardinality() != 10 {
		t.Error("alias shape wrong")
	}
	if err := db.Alias("A2", "A"); err == nil {
		t.Error("duplicate alias accepted")
	}
	if err := db.Alias("A3", "nope"); err == nil {
		t.Error("alias of unknown relation accepted")
	}
	if _, err := db.Catalog.Stats("A2"); err != nil {
		t.Error("alias missing from catalog")
	}
}

func TestOrderRelationsChain(t *testing.T) {
	conds := predicate.Conjunction{
		predicate.C("B", "a", predicate.LT, "C", "a"),
		predicate.C("A", "a", predicate.LT, "B", "a"),
	}
	order, err := OrderRelations(conds)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "A" || order[1] != "B" || order[2] != "C" {
		t.Errorf("chain order = %v, want A B C", order)
	}
}

func TestOrderRelationsDisconnected(t *testing.T) {
	conds := predicate.Conjunction{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("C", "a", predicate.LT, "D", "a"),
	}
	if _, err := OrderRelations(conds); err == nil {
		t.Error("disconnected conjunction accepted")
	}
	if _, err := OrderRelations(nil); err == nil {
		t.Error("empty conjunction accepted")
	}
}

func TestAllEquiSamePair(t *testing.T) {
	if !AllEquiSamePair(predicate.Conjunction{
		predicate.C("A", "a", predicate.EQ, "B", "a"),
		predicate.C("A", "b", predicate.EQ, "B", "b"),
	}) {
		t.Error("two-EQ same pair not recognized")
	}
	if AllEquiSamePair(predicate.Conjunction{
		predicate.C("A", "a", predicate.EQ, "B", "a"),
		predicate.C("B", "b", predicate.EQ, "C", "b"),
	}) {
		t.Error("three relations recognized as same pair")
	}
	if AllEquiSamePair(predicate.Conjunction{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	}) {
		t.Error("LT recognized as equi")
	}
	if AllEquiSamePair(nil) {
		t.Error("empty recognized")
	}
}

// The central correctness theorem: a single Hilbert-partitioned MRJ
// produces exactly the naive join result — every joinable combination
// meets at exactly one reducer.
func TestThetaJobMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randRelation("A", 60, 20, rng)
	b := randRelation("B", 50, 20, rng)
	c := randRelation("C", 40, 20, rng)
	db := newTestDB(t, a, b, c)
	q := query.MustNew("q", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range []int{1, 3, 8, 16} {
		rels := make([]*relation.Relation, 3)
		for i, n := range []string{"A", "B", "C"} {
			rels[i], _ = db.Relation(n)
		}
		job, err := BuildThetaJob("t", rels, q.Conditions, kr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mr.Run(context.Background(), testConfig(), job)
		if err != nil {
			t.Fatal(err)
		}
		got, wantRS := resultSet(res.Output), resultSet(want)
		if !wantRS.Equal(got) {
			t.Errorf("kr=%d: result mismatch (%d vs %d rows): %v",
				kr, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
	}
}

// Property test: random small relations, random conditions with every
// theta operator, random reducer counts — single-MRJ result must equal
// naive every time.
func TestThetaJobRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.GE, predicate.GT, predicate.NE}
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(2) // 2 or 3 relations
		names := []string{"A", "B", "C"}[:m]
		rels := make([]*relation.Relation, m)
		for i := range rels {
			rels[i] = randRelation(names[i], 15+rng.Intn(25), 6+rng.Intn(10), rng)
		}
		var conds []predicate.Condition
		for i := 0; i+1 < m; i++ {
			conds = append(conds, predicate.Condition{
				Left: names[i], LeftColumn: []string{"a", "b"}[rng.Intn(2)],
				Op:    ops[rng.Intn(len(ops))],
				Right: names[i+1], RightColumn: []string{"a", "b"}[rng.Intn(2)],
				LeftOffset: float64(rng.Intn(5) - 2),
			})
		}
		// Sometimes add a second condition on the first pair.
		if rng.Intn(2) == 0 {
			conds = append(conds, predicate.Condition{
				Left: names[0], LeftColumn: "b", Op: ops[rng.Intn(len(ops))],
				Right: names[1], RightColumn: "a",
			})
		}
		db := newTestDB(t, rels...)
		q, err := query.New("rq", names, conds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		order, err := OrderRelations(q.Conditions)
		if err != nil {
			t.Fatal(err)
		}
		ordered := make([]*relation.Relation, len(order))
		for i, n := range order {
			ordered[i], _ = db.Relation(n)
		}
		kr := 1 + rng.Intn(12)
		job, err := BuildThetaJob("t", ordered, q.Conditions, kr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mr.Run(context.Background(), testConfig(), job)
		if err != nil {
			t.Fatal(err)
		}
		got, wantRS := resultSet(res.Output), resultSet(want)
		if !wantRS.Equal(got) {
			t.Fatalf("trial %d (%s, kr=%d): mismatch %d vs %d rows: %v",
				trial, q, kr, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
	}
}

func TestThetaJobEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randRelation("A", 0, 5, rng)
	b := randRelation("B", 10, 5, rng)
	db := newTestDB(t, a, b)
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	conds := predicate.Conjunction{predicate.C("A", "a", predicate.LT, "B", "a")}
	job, err := BuildThetaJob("t", []*relation.Relation{ra, rb}, conds, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Cardinality() != 0 {
		t.Error("nonempty join with empty input")
	}
}

func TestHashEquiJobMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randRelation("A", 80, 12, rng)
	b := randRelation("B", 70, 12, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("eq", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.EQ, "B", "a"),
		predicate.C("A", "b", predicate.EQ, "B", "b"),
	})
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	job, err := BuildHashEquiJob("he", ra, rb, q.Conditions, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRS := resultSet(res.Output), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("hash equi mismatch: %d vs %d rows", got.Len(), wantRS.Len())
	}
	// No duplication: shuffle pairs = total input tuples.
	if res.Metrics.PairsEmitted != int64(ra.Cardinality()+rb.Cardinality()) {
		t.Errorf("equi join duplicated tuples: %d pairs", res.Metrics.PairsEmitted)
	}
}

func TestHashEquiJobRejectsTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := newTestDB(t, randRelation("A", 5, 5, rng), randRelation("B", 5, 5, rng))
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	if _, err := BuildHashEquiJob("he", ra, rb,
		predicate.Conjunction{predicate.C("A", "a", predicate.LT, "B", "a")}, 2, nil); err == nil {
		t.Error("theta condition accepted by hash equi join")
	}
}

func TestMergeOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randRelation("A", 30, 8, rng)
	b := randRelation("B", 30, 8, rng)
	c := randRelation("C", 30, 8, rng)
	db := newTestDB(t, a, b, c)
	q := query.MustNew("m3", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LE, "B", "a"),
		predicate.C("B", "b", predicate.GT, "C", "a"),
	})
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the two conditions as separate jobs, then merge on B.
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	rc, _ := db.Relation("C")
	j1, err := BuildThetaJob("j1", []*relation.Relation{ra, rb},
		predicate.Conjunction{q.Conditions[0]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := BuildThetaJob("j2", []*relation.Relation{rb, rc},
		predicate.Conjunction{q.Conditions[1]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := mr.Run(context.Background(), testConfig(), j1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mr.Run(context.Background(), testConfig(), j2)
	if err != nil {
		t.Fatal(err)
	}
	merged, steps, err := mergeFullWidth("m3", []*relation.Relation{r1.Output, r2.Output})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Errorf("merge count = %d", len(steps))
	}
	got, wantRS := resultSet(merged), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("merged result mismatch: %d vs %d rows: %v",
			got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
	}
}

func TestMergeNoSharedRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := randRelation("A", 5, 5, rng)
	b := randRelation("B", 5, 5, rng)
	db := newTestDB(t, a, b)
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	oa := relation.New("oa", prefixedSchema([]*relation.Relation{ra}))
	ob := relation.New("ob", prefixedSchema([]*relation.Relation{rb}))
	if _, err := MergeOutputs("x", oa, ob); err == nil {
		t.Error("disjoint merge accepted")
	}
	if _, _, err := mergeFullWidth("x", nil); err == nil {
		t.Error("empty merge accepted")
	}
}

func TestNaiveDuplicateTuples(t *testing.T) {
	// Duplicate rows in a base relation must yield duplicate join rows,
	// and the theta job must reproduce the multiplicity exactly (row
	// IDs distinguish the physical tuples).
	a := relation.New("A", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	a.MustAppend(relation.Tuple{relation.Int(1)})
	a.MustAppend(relation.Tuple{relation.Int(1)}) // duplicate value
	b := relation.New("B", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	b.MustAppend(relation.Tuple{relation.Int(2)})
	db := newTestDB(t, a, b)
	q := query.MustNew("dup", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() != 2 {
		t.Fatalf("naive rows = %d, want 2", want.Cardinality())
	}
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	job, err := BuildThetaJob("dup", []*relation.Relation{ra, rb}, q.Conditions, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Cardinality() != 2 {
		t.Errorf("theta job rows = %d, want 2", res.Output.Cardinality())
	}
}
