package baselines

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/obs"
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
		res, err := Run(context.Background(), st, testConfig(), q, db, testConfig().ReduceSlots)
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
		res, err := Run(context.Background(), st, testConfig(), q, db, testConfig().ReduceSlots)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		if got := resultSet(res.Output); !wantRS.Equal(got) {
			t.Errorf("%s: mixed equi/theta mismatch", st.Name)
		}
	}
}

// typedRelation draws a relation with one column of each joinable kind
// — i (int), f (float), ts (time), s (string) — over small domains, so
// values repeat, with about one value in eight NULL. The numeric
// domains meet at small values, at values from 10^6 up, which an int
// and a float print differently ("1000000", "1e+06"), and at 2^53,
// which a float shares with the int 2^53+1. f holds -0 and +0 both;
// NaN is left out (relation/sortkey.go does not order it).
func typedRelation(name string, n int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "ts", Kind: relation.KindTime},
		relation.Column{Name: "s", Kind: relation.KindString},
	))
	ints := []int64{-2, -1, 0, 1, 2, 3, 1_000_000, 1_700_000_001, 1 << 53, 1<<53 + 1}
	floats := []float64{-2.5, math.Copysign(0, -1), 0, 1, 1.5, 3, 1e6, 1_700_000_001, 1 << 53}
	times := []int64{1_000_000, 1_700_000_000, 1_700_000_001, 1_700_000_002, 1 << 53, 1<<53 + 1}
	strs := []string{"", "a", "ab", "b", "ba", "c"}
	orNull := func(v relation.Value) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.Null()
		}
		return v
	}
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			orNull(relation.Int(ints[rng.Intn(len(ints))])),
			orNull(relation.Float(floats[rng.Intn(len(floats))])),
			orNull(relation.TimeUnix(times[rng.Intn(len(times))])),
			orNull(relation.Str(strs[rng.Intn(len(strs))])),
		})
	}
	return r
}

// randCondition joins left with right on columns a key mode evaluates:
// a string with a string, or any two of int, float and time, with a
// whole offset on a side when neither column is a float.
func randCondition(left, right string, rng *rand.Rand) predicate.Condition {
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.GE, predicate.GT, predicate.NE}
	numeric := []string{"i", "f", "ts"}
	c := predicate.Condition{Left: left, Right: right, Op: ops[rng.Intn(len(ops))]}
	if rng.Intn(4) == 0 {
		c.LeftColumn, c.RightColumn = "s", "s"
		return c
	}
	c.LeftColumn, c.RightColumn = numeric[rng.Intn(3)], numeric[rng.Intn(3)]
	if c.LeftColumn != "f" && c.RightColumn != "f" && rng.Intn(2) == 0 {
		c.LeftOffset, c.RightOffset = float64(rng.Intn(5)-2), float64(rng.Intn(3)-1)
	}
	return c
}

// Random query property: all cascade baselines agree with naive, over
// every joinable kind pairing, NULLs, duplicates, offsets and all six
// operators, one to three conditions per step (several equalities make
// a composite equi key).
func TestCascadesRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(2)
		names := []string{"A", "B", "C"}[:m]
		rels := make([]*relation.Relation, m)
		for i := range rels {
			rels[i] = typedRelation(names[i], 12+rng.Intn(20), rng)
		}
		var conds []predicate.Condition
		for i := 1; i < m; i++ {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				conds = append(conds, randCondition(names[rng.Intn(i)], names[i], rng))
			}
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
			res, err := Run(context.Background(), st, testConfig(), q, db, testConfig().ReduceSlots)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, st.Name, err)
			}
			if got := resultSet(res.Output); !wantRS.Equal(got) {
				t.Fatalf("trial %d %s (%s): mismatch %d vs %d rows: %v",
					trial, st.Name, q, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
			}
		}
	}
}

// An int and a float equal as join keys meet in one reducer however
// they print: ints 999 999, 10^6, 1 234 567 and 5 join the same values
// as floats, and int 2^53+1 joins float 2^53 (equal as the floats the
// condition compares). The hash-equi job, a three-way share grid whose
// equality class holds the float column, and all three cascades return
// core.Naive's rows.
func TestIntFloatEquiJoinsMatchNaive(t *testing.T) {
	ints := []int64{999_999, 1_000_000, 1_234_567, 5, 1<<53 + 1}
	mk := func(name string, kind relation.Kind) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "x", Kind: kind},
			relation.Column{Name: "w", Kind: relation.KindInt},
		))
		for i, x := range ints {
			v := relation.Int(x)
			if kind == relation.KindFloat {
				v = relation.Float(float64(x))
			}
			r.MustAppend(relation.Tuple{v, relation.Int(int64(i))})
		}
		return r
	}
	db := newDB(t, mk("A", relation.KindInt), mk("B", relation.KindFloat), mk("C", relation.KindInt))
	rels := func(names ...string) []*relation.Relation {
		out := make([]*relation.Relation, len(names))
		for i, n := range names {
			r, err := db.Relation(n)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r
		}
		return out
	}
	const kr = 16
	pair := query.MustNew("pair", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "x", predicate.EQ, "B", "x"),
	})
	grid := query.MustNew("grid", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "x", predicate.EQ, "B", "x"),
		predicate.C("B", "x", predicate.EQ, "C", "x"),
		predicate.C("A", "w", predicate.LE, "C", "w"),
	})
	ab := rels("A", "B")
	hashEqui, err := core.BuildHashEquiJob("pair", ab[0], ab[1], pair.Conditions, kr, nil)
	if err != nil {
		t.Fatal(err)
	}
	shareGrid, err := core.BuildShareGridJob("grid", rels("A", "B", "C"), grid.Conditions, kr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q   *query.Query
		job *mr.Job
	}{{pair, hashEqui}, {grid, shareGrid}} {
		want, err := core.Naive(tc.q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() != len(ints) {
			t.Fatalf("%s: naive returns %d rows, want %d", tc.q.Name, want.Cardinality(), len(ints))
		}
		wantRS := resultSet(want)
		res, err := mr.Run(context.Background(), testConfig(), tc.job)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultSet(res.Output); !wantRS.Equal(got) {
			t.Errorf("%s job: %d rows, naive %d: %v", tc.q.Name, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
		for _, st := range []Strategy{Hive(), Pig(), YSmart()} {
			res, err := Run(context.Background(), st, testConfig(), tc.q, db, kr)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultSet(res.Output); !wantRS.Equal(got) {
				t.Errorf("%s %s: %d rows, naive %d: %v", tc.q.Name, st.Name, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
			}
		}
	}
}

// A condition comparing a string with a number is refused before any
// cascade step runs, with an error naming both columns — also when the
// condition joins only at the second step.
func TestCascadesRefuseMixedKinds(t *testing.T) {
	calls := relation.New("calls", relation.MustSchema(
		relation.Column{Name: "bs", Kind: relation.KindString},
		relation.Column{Name: "d", Kind: relation.KindInt},
	))
	for i := 0; i < 5; i++ {
		calls.MustAppend(relation.Tuple{relation.Str(string(rune('a' + i))), relation.Int(int64(i))})
	}
	db := newDB(t, calls)
	for _, alias := range []string{"t1", "t2", "t3"} {
		if err := db.Alias(alias, "calls"); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*query.Query{
		query.MustNew("mixed", []string{"t1", "t2"}, []predicate.Condition{
			predicate.C("t1", "bs", predicate.GT, "t2", "d"),
		}),
		query.MustNew("mixed3", []string{"t1", "t3", "t2"}, []predicate.Condition{
			predicate.C("t1", "d", predicate.EQ, "t3", "d"),
			predicate.C("t1", "bs", predicate.GT, "t2", "d"),
		}),
	}
	// The tracer sees every step that runs.
	tr := obs.NewTracer()
	ok := query.MustNew("ok", []string{"t1", "t2"}, []predicate.Condition{predicate.C("t1", "d", predicate.LT, "t2", "d")})
	if _, err := Run(obs.NewContext(context.Background(), &obs.Obs{Tracer: tr}), Hive(), testConfig(), ok, db, 4); err != nil || len(tr.Events()) == 0 {
		t.Fatalf("control query: err %v, %d trace events", err, len(tr.Events()))
	}
	for _, q := range queries {
		for _, st := range []Strategy{Hive(), Pig(), YSmart()} {
			tr := obs.NewTracer()
			ctx := obs.NewContext(context.Background(), &obs.Obs{Tracer: tr})
			res, err := Run(ctx, st, testConfig(), q, db, testConfig().ReduceSlots)
			if err == nil {
				t.Errorf("%s %s: accepted, %d rows", q.Name, st.Name, res.Output.Cardinality())
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "t1.bs") || !strings.Contains(msg, "t2.d") {
				t.Errorf("%s %s: error %q does not name t1.bs and t2.d", q.Name, st.Name, msg)
			}
			if ev := tr.Events(); len(ev) != 0 {
				t.Errorf("%s %s: refused after a step ran (%d trace events)", q.Name, st.Name, len(ev))
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
	hive, err := Run(context.Background(), Hive(), testConfig(), q, db, testConfig().ReduceSlots)
	if err != nil {
		t.Fatal(err)
	}
	ysmart, err := Run(context.Background(), YSmart(), testConfig(), q, db, testConfig().ReduceSlots)
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
	hive, err := Run(context.Background(), Hive(), testConfig(), q, db, testConfig().ReduceSlots)
	if err != nil {
		t.Fatal(err)
	}
	pig, err := Run(context.Background(), Pig(), testConfig(), q, db, testConfig().ReduceSlots)
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

// The cascades join in the query's written order, never by relation
// size (no strategy of the paper's vintage had the statistics): the
// order is a function of the query alone. It departs from the written
// order only to stay connected — Mid does not touch Big, so Small, the
// first relation that does, goes second.
func TestJoinOrderWrittenVsSize(t *testing.T) {
	q := query.MustNew("jo", []string{"Big", "Mid", "Small"}, []predicate.Condition{
		predicate.C("Big", "a", predicate.LT, "Small", "a"),
		predicate.C("Small", "b", predicate.GE, "Mid", "b"),
	})
	got, err := joinOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Big", "Small", "Mid"}; !slices.Equal(got, want) {
		t.Errorf("join order %v, want %v", got, want)
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if len(n) != 4 || n[0] != "Our Method" {
		t.Errorf("Names() = %v", n)
	}
}
