package core

import (
	"math/rand"
	"testing"

	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// stringRelation draws station-like names from a pool window, so two
// relations built over shifted windows overlap partially: shared names
// take the member fast path, exclusive ones exercise absent-string
// probes against the other side's dictionary. A sprinkle of NULLs
// checks the NullSortKey handling.
func stringRelation(name string, n, lo, hi int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "d", Kind: relation.KindInt},
	))
	pool := []string{
		"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen",
		"ibis", "jay", "kiwi", "lynx", "mole", "newt", "owl", "pug",
	}
	for k := 0; k < n; k++ {
		var sv relation.Value
		if rng.Intn(12) == 0 {
			sv = relation.Null()
		} else {
			sv = relation.Str(pool[lo+rng.Intn(hi-lo)])
		}
		r.MustAppend(relation.Tuple{sv, relation.Int(int64(rng.Intn(4)))})
	}
	return r
}

// TestJoinEvalStringEquivalence checks the dictionary-keyed string
// path against the Naive oracle, which compares with relation.Compare,
// for every condition kind the KeyDict mode compiles — equality,
// inequality, range and a 3-way band.
func TestJoinEvalStringEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		rels  []string
		conds []predicate.Condition
	}{
		{"string-eq", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.EQ, "B", "s"),
		}},
		{"string-ne", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.NE, "B", "s"),
			predicate.C("A", "d", predicate.EQ, "B", "d"),
		}},
		{"string-range", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.LT, "B", "s"),
		}},
		{"string-range-ge", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.GE, "B", "s"),
			predicate.C("A", "d", predicate.LE, "B", "d"),
		}},
		// Strings admit no offsets, so a two-sided band anchors two
		// range conditions on one relation's column: A.s ≤ C.s ≤ B.s.
		{"string-band", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "s", predicate.LE, "C", "s"),
			predicate.C("B", "s", predicate.GE, "C", "s"),
			predicate.C("A", "d", predicate.EQ, "B", "d"),
		}},
	}
	rng := rand.New(rand.NewSource(99))
	plain := map[string]*relation.Relation{
		"A": stringRelation("A", 60, 0, 10, rng),
		"B": stringRelation("B", 50, 5, 16, rng), // overlaps A on pool[5:10]
		"C": stringRelation("C", 40, 2, 13, rng),
	}
	db := newTestDB(t, plain["A"], plain["B"], plain["C"])
	for _, tc := range cases {
		t.Run("interned/"+tc.name, func(t *testing.T) {
			q := query.MustNew("q-"+tc.name, tc.rels, tc.conds)
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			rels := make([]*relation.Relation, len(tc.rels))
			for i, name := range tc.rels {
				if rels[i], err = db.Relation(name); err != nil {
					t.Fatal(err)
				}
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

// TestStringConditionsCompileToDictMode asserts the dictionary keys
// engage on interned inputs: every string condition classifies KeyDict.
func TestStringConditionsCompileToDictMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := stringRelation("A", 30, 0, 10, rng)
	b := stringRelation("B", 30, 5, 16, rng)
	db := newTestDB(t, a, b)
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	conds := predicate.Conjunction{
		predicate.C("A", "s", predicate.EQ, "B", "s"),
		predicate.C("A", "s", predicate.LT, "B", "s"),
		predicate.C("A", "s", predicate.NE, "B", "s"),
	}
	bound, err := bindConditions(conds, []*relation.Relation{ra, rb})
	if err != nil {
		t.Fatal(err)
	}
	je := newJoinEval([]*relation.Relation{ra, rb}, bound)
	st := je.steps[1]
	if len(st.eq) != 1 || st.eq[0].bc.mode != predicate.KeyDict {
		t.Errorf("eq condition mode = %v", st.eq)
	}
	if len(st.rng) != 1 || st.rng[0].bc.mode != predicate.KeyDict {
		t.Errorf("range condition mode = %v", st.rng)
	}
	if len(st.ne) != 1 || st.ne[0].bc.mode != predicate.KeyDict {
		t.Errorf("ne condition mode = %v", st.ne)
	}
}
