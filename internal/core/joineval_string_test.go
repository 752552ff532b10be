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
// fast path against the Naive oracle for every condition kind the
// KeyDict mode compiles — equality, inequality, range and a 3-way
// band — and repeats each case over copies of the same rows that no
// Analyze has interned, so the KeyDict path and the generic Compare
// fallback provably agree.
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
	for _, interned := range []bool{true, false} {
		// NewDB interned its own row-id-widened copies; widening the
		// originals again yields the same rows and rids, dictionary-less.
		input := func(name string) *relation.Relation {
			r, err := db.Relation(name)
			if !interned {
				r, err = EnsureRowIDs(plain[name])
			}
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		if got := input("A").DictOf(0) != nil; got != interned {
			t.Fatalf("interned=%v but dict present=%v", interned, got)
		}
		label := "interned"
		if !interned {
			label = "fallback"
		}
		for _, tc := range cases {
			t.Run(label+"/"+tc.name, func(t *testing.T) {
				q := query.MustNew("q-"+tc.name, tc.rels, tc.conds)
				want, err := Naive(q, db)
				if err != nil {
					t.Fatal(err)
				}
				rels := make([]*relation.Relation, len(tc.rels))
				for i, name := range tc.rels {
					rels[i] = input(name)
				}
				job, err := BuildThetaJob("theta-"+tc.name, rels, q.Conditions, 5, 1<<12)
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
}

// TestStringConditionsCompileToDictMode asserts the fast path actually
// engages on interned inputs: every string condition of the band case
// classifies KeyDict, none fall back to the generic bucket.
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
	if len(st.gen) != 0 {
		t.Fatalf("%d string conditions fell back to the generic path", len(st.gen))
	}
	if len(st.eq) != 1 || st.eq[0].mode != predicate.KeyDict {
		t.Errorf("eq condition mode = %v", st.eq)
	}
	if len(st.rng) != 1 || st.rng[0].mode != predicate.KeyDict {
		t.Errorf("range condition mode = %v", st.rng)
	}
	if len(st.ne) != 1 || st.ne[0].mode != predicate.KeyDict {
		t.Errorf("ne condition mode = %v", st.ne)
	}
}
