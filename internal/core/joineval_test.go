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

// mixedRelation builds a relation exercising every key mode: int (i),
// float (f), string (s) and time (t) columns.
func mixedRelation(name string, n, domain int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "t", Kind: relation.KindTime},
	))
	for k := 0; k < n; k++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(rng.Intn(domain))),
			relation.Float(float64(rng.Intn(4*domain)) / 4),
			relation.Str(string(rune('a' + rng.Intn(domain%26+1)))),
			relation.TimeUnix(int64(rng.Intn(domain))),
		})
	}
	return r
}

// runJob executes a job single-threaded with the shared test config.
func runEvalJob(t *testing.T, job *mr.Job) *mr.Result {
	t.Helper()
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJoinEvalThetaEquivalence checks the indexed theta reducer
// against the Naive oracle across every condition shape the evaluator
// compiles differently: equalities, single and band ranges, NE,
// fractional offsets (int→float promotion), string columns (the
// generic path) and time columns.
func TestJoinEvalThetaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mixedRelation("A", 70, 12, rng)
	b := mixedRelation("B", 60, 12, rng)
	c := mixedRelation("C", 50, 12, rng)
	db := newTestDB(t, a, b, c)
	cases := []struct {
		name  string
		rels  []string
		conds []predicate.Condition
	}{
		{"eq-int", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
		}},
		{"range-int", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.LT, "B", "i"),
		}},
		{"band-int", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.LT, "B", "i"),
			predicate.C("A", "i", predicate.GT, "B", "i").WithOffsets(0, -4),
		}},
		{"band-float", []string{"A", "B"}, []predicate.Condition{
			// Different candidate-side offsets in float mode: not
			// foldable into one subrange, verified per candidate.
			predicate.C("A", "f", predicate.LT, "B", "f"),
			predicate.C("A", "f", predicate.GT, "B", "f").WithOffsets(0, -2.5),
		}},
		{"band-time", []string{"A", "B"}, []predicate.Condition{
			// Integer mode with differing offsets: folds by shifting
			// the probe key (time offsets truncate, as Value.Add does).
			predicate.C("A", "t", predicate.LE, "B", "t"),
			predicate.C("A", "t", predicate.GE, "B", "t").WithOffsets(0, -3),
		}},
		{"eq-plus-range", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("A", "f", predicate.LE, "B", "f"),
		}},
		{"ne", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.GE, "B", "i"),
			predicate.C("A", "t", predicate.NE, "B", "t"),
		}},
		{"float-offset-promotion", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.LT, "B", "i").WithOffsets(0.5, 0),
		}},
		{"int-vs-float", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.GE, "B", "f"),
		}},
		{"string-generic", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.LE, "B", "s"),
			predicate.C("A", "i", predicate.LT, "B", "i").WithOffsets(-2, 0),
		}},
		{"string-only", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.EQ, "B", "s"),
		}},
		{"time-range", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "t", predicate.LE, "B", "t").WithOffsets(3, 0),
		}},
		{"three-way-mixed", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("B", "f", predicate.LT, "C", "f"),
			predicate.C("A", "t", predicate.GE, "C", "t").WithOffsets(0, -2),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustNew("q-"+tc.name, tc.rels, tc.conds)
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			order, err := OrderRelations(q.Conditions)
			if err != nil {
				t.Fatal(err)
			}
			rels := make([]*relation.Relation, len(order))
			for i, name := range order {
				r, err := db.Relation(name)
				if err != nil {
					t.Fatal(err)
				}
				rels[i] = r
			}
			job, err := BuildThetaJob("theta-"+tc.name, rels, q.Conditions, 5)
			if err != nil {
				t.Fatal(err)
			}
			got := resultSet(runEvalJob(t, job).Output)
			wantRS := resultSet(want)
			if !wantRS.Equal(got) {
				t.Errorf("result mismatch: got %d rows, want %d\ndiff: %v",
					got.Len(), wantRS.Len(), wantRS.Diff(got, 5))
			}
		})
	}
}

// TestJoinEvalShareGridEquivalence does the same for the share-grid
// reducer, whose equality conditions now probe hash indexes and whose
// theta residuals ride the range path.
func TestJoinEvalShareGridEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := mixedRelation("A", 60, 8, rng)
	b := mixedRelation("B", 50, 8, rng)
	c := mixedRelation("C", 40, 8, rng)
	db := newTestDB(t, a, b, c)
	cases := []struct {
		name  string
		rels  []string
		conds []predicate.Condition
	}{
		{"equi-pair", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
		}},
		{"equi-chain", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("B", "t", predicate.EQ, "C", "t"),
		}},
		{"equi-with-residual", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("B", "i", predicate.EQ, "C", "i"),
			predicate.C("A", "f", predicate.LT, "C", "f"),
			predicate.C("A", "s", predicate.NE, "C", "s"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustNew("q-"+tc.name, tc.rels, tc.conds)
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			rels := make([]*relation.Relation, len(tc.rels))
			for i, name := range tc.rels {
				r, err := db.Relation(name)
				if err != nil {
					t.Fatal(err)
				}
				rels[i] = r
			}
			job, err := BuildShareGridJob("grid-"+tc.name, rels, q.Conditions, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := resultSet(runEvalJob(t, job).Output)
			wantRS := resultSet(want)
			if !wantRS.Equal(got) {
				t.Errorf("result mismatch: got %d rows, want %d\ndiff: %v",
					got.Len(), wantRS.Len(), wantRS.Diff(got, 5))
			}
		})
	}
}

// TestJoinEvalIndexingPrunes runs each operator on one reducer, where
// the single reduce group holds every tuple: a nested loop would
// examine all |A|·|B| pairs at the second step alone, so the per-group
// indexes must bring CombinationsChecked below that. (Result equality
// against core.Naive is TestJoinEval{Theta,ShareGrid}Equivalence's.)
func TestJoinEvalIndexingPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randRelation("A", 120, 15, rng)
	b := randRelation("B", 100, 15, rng)
	c := randRelation("C", 80, 15, rng)
	db := newTestDB(t, a, b, c)
	rel := func(name string) *relation.Relation {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	nested := int64(a.Cardinality() * b.Cardinality())
	check := func(t *testing.T, job *mr.Job, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got := runEvalJob(t, job).Metrics.CombinationsChecked
		if got <= 0 || got >= nested {
			t.Errorf("indexing did not prune: %d combinations checked, a nested loop checks >= %d", got, nested)
		}
		t.Logf("%d combinations checked, nested loop >= %d", got, nested)
	}
	t.Run("share-grid", func(t *testing.T) {
		job, err := BuildShareGridJob("grid", []*relation.Relation{rel("A"), rel("B"), rel("C")}, predicate.Conjunction{
			predicate.C("A", "a", predicate.EQ, "B", "a"),
			predicate.C("B", "b", predicate.EQ, "C", "b"),
		}, 1, nil)
		check(t, job, err)
	})
	t.Run("theta-band", func(t *testing.T) {
		job, err := BuildThetaJob("theta", []*relation.Relation{rel("A"), rel("B")}, predicate.Conjunction{
			predicate.C("A", "a", predicate.LT, "B", "a"),
			predicate.C("A", "a", predicate.GT, "B", "a").WithOffsets(0, -5),
		}, 1)
		check(t, job, err)
	})
}
