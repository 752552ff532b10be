package baselines

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
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

func newDB(t *testing.T, rels ...*relation.Relation) *core.DB {
	t.Helper()
	db, err := core.NewDB(500, 1, rels...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func resultSet(r *relation.Relation) *relation.ResultSet {
	rs := relation.NewResultSet()
	rs.AddAll(core.CanonicalizeResult(r).Tuples)
	return rs
}

func chainQuery(t *testing.T) *query.Query {
	t.Helper()
	return query.MustNew("q3", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})
}

// Every cascade strategy must reproduce the naive result exactly.
func TestCascadesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randRelation("A", 40, 12, rng)
	b := randRelation("B", 35, 12, rng)
	c := randRelation("C", 30, 12, rng)
	db := newDB(t, a, b, c)
	q := chainQuery(t)
	want, err := core.Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	wantRS := resultSet(want)
	for _, st := range []Strategy{Hive(), Pig(), YSmart()} {
		res, err := Run(context.Background(), st, testConfig(), q, db, 0)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		got := resultSet(res.Output)
		if !wantRS.Equal(got) {
			t.Errorf("%s: mismatch %d vs %d rows: %v", st.Name, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
		if res.TotalTime <= 0 {
			t.Errorf("%s: no time accounted", st.Name)
		}
		if len(res.Steps) != 2 {
			t.Errorf("%s: %d steps, want 2 (pairwise cascade)", st.Name, len(res.Steps))
		}
	}
}

func TestCascadeEquiAndMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := randRelation("A", 50, 10, rng)
	b := randRelation("B", 45, 10, rng)
	db := newDB(t, a, b)
	q := query.MustNew("mixed", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.EQ, "B", "a"),
		predicate.C("A", "b", predicate.LE, "B", "b"),
	})
	want, err := core.Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	wantRS := resultSet(want)
	for _, st := range []Strategy{Hive(), Pig(), YSmart()} {
		res, err := Run(context.Background(), st, testConfig(), q, db, 0)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		if got := resultSet(res.Output); !wantRS.Equal(got) {
			t.Errorf("%s: mixed equi/theta mismatch", st.Name)
		}
	}
}

// Random query property: all cascade baselines agree with naive.
func TestCascadesRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.GE, predicate.GT, predicate.NE}
	for trial := 0; trial < 12; trial++ {
		m := 2 + rng.Intn(2)
		names := []string{"A", "B", "C"}[:m]
		rels := make([]*relation.Relation, m)
		for i := range rels {
			rels[i] = randRelation(names[i], 15+rng.Intn(20), 8, rng)
		}
		var conds []predicate.Condition
		for i := 0; i+1 < m; i++ {
			conds = append(conds, predicate.Condition{
				Left: names[i], LeftColumn: "a", Op: ops[rng.Intn(len(ops))],
				Right: names[i+1], RightColumn: "b",
			})
		}
		db := newDB(t, rels...)
		q, err := query.New("rq", names, conds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Naive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		wantRS := resultSet(want)
		for _, st := range []Strategy{Hive(), Pig(), YSmart()} {
			res, err := Run(context.Background(), st, testConfig(), q, db, 0)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, st.Name, err)
			}
			if got := resultSet(res.Output); !wantRS.Equal(got) {
				t.Fatalf("trial %d %s (%s): mismatch %d vs %d",
					trial, st.Name, q, got.Len(), wantRS.Len())
			}
		}
	}
}

func TestYSmartFasterThanHiveOnSelfJoins(t *testing.T) {
	// Self-join query reading the same base table twice: YSmart's
	// shared scan should beat Hive's rescan (as in [23]).
	rng := rand.New(rand.NewSource(73))
	base := randRelation("calls", 60, 15, rng)
	base.VolumeMultiplier = 1e6
	db := newDB(t, base)
	if err := db.Alias("t1", "calls"); err != nil {
		t.Fatal(err)
	}
	if err := db.Alias("t2", "calls"); err != nil {
		t.Fatal(err)
	}
	if err := db.Alias("t3", "calls"); err != nil {
		t.Fatal(err)
	}
	q := query.MustNew("self", []string{"t1", "t2", "t3"}, []predicate.Condition{
		predicate.C("t1", "a", predicate.EQ, "t2", "a"),
		predicate.C("t2", "b", predicate.EQ, "t3", "b"),
	})
	hive, err := Run(context.Background(), Hive(), testConfig(), q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	ysmart, err := Run(context.Background(), YSmart(), testConfig(), q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ysmart.TotalTime >= hive.TotalTime {
		t.Errorf("YSmart (%v) not faster than Hive (%v) on self-join", ysmart.TotalTime, hive.TotalTime)
	}
	// Same results.
	if !resultSet(hive.Output).Equal(resultSet(ysmart.Output)) {
		t.Error("YSmart and Hive disagree")
	}
}

func TestPigSlowerThanHive(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := randRelation("A", 50, 10, rng)
	b := randRelation("B", 50, 10, rng)
	a.VolumeMultiplier = 1e6
	b.VolumeMultiplier = 1e6
	db := newDB(t, a, b)
	q := query.MustNew("pq", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.EQ, "B", "a"),
	})
	hive, err := Run(context.Background(), Hive(), testConfig(), q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	pig, err := Run(context.Background(), Pig(), testConfig(), q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pig.TotalTime <= hive.TotalTime {
		t.Errorf("Pig (%v) not slower than Hive (%v)", pig.TotalTime, hive.TotalTime)
	}
}

func TestSquarish(t *testing.T) {
	cases := []struct{ kr, rows, cols int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {9, 3, 3}, {16, 4, 4}, {12, 3, 4},
	}
	for _, c := range cases {
		r, co := squarish(c.kr)
		if r != c.rows || co != c.cols {
			t.Errorf("squarish(%d) = %d,%d want %d,%d", c.kr, r, co, c.rows, c.cols)
		}
	}
	// Large prime: falls back to sqrt grid.
	r, c := squarish(97)
	if r != 9 || c != 9 {
		t.Errorf("squarish(97) = %d,%d, want 9,9", r, c)
	}
}

func TestJoinOrderWrittenVsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	big := randRelation("Big", 100, 10, rng)
	small := randRelation("Small", 10, 10, rng)
	mid := randRelation("Mid", 50, 10, rng)
	db := newDB(t, big, small, mid)
	q := query.MustNew("jo", []string{"Big", "Small", "Mid"}, []predicate.Condition{
		predicate.C("Big", "a", predicate.LT, "Small", "a"),
		predicate.C("Small", "b", predicate.GE, "Mid", "b"),
	})
	written, err := joinOrder(Pig(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if written[0] != "Big" {
		t.Errorf("written order starts with %s", written[0])
	}
	// Hive's vintage default is written order too; the size-driven
	// reordering remains available as a strategy knob.
	sizeAware := Hive()
	sizeAware.ReorderBySize = true
	sized, err := joinOrder(sizeAware, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if sized[0] != "Small" {
		t.Errorf("size order starts with %s, want Small", sized[0])
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if len(n) != 4 || n[0] != "Our Method" {
		t.Errorf("Names() = %v", n)
	}
}
