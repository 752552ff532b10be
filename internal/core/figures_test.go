package core

// Named reproductions of the paper's illustrative figures (DESIGN.md's
// experiment index): Fig. 5's network-volume growth with reducer count
// and Fig. 4's merge plan live here; Fig. 1's join-path graph is
// covered in internal/joinpath.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestFig5NetworkVolume reproduces Fig. 5's walk-through: partitioning
// the |R_i|×|R_j|×|R_k| cube with more reduce tasks increases the
// copied network volume, starting from exactly |R_i|+|R_j|+|R_k| at a
// single reducer. With |R_i|=|R_j|=|R_k|, the figure's 2-component
// split copies (2+2+1)/3 of the single-component volume for the best
// axis-aligned cut; the Hilbert partition must stay within the
// figure's 4-component spread (≤ 3× the single-component volume).
func TestFig5NetworkVolume(t *testing.T) {
	const n = 240
	cards := []int{n, n, n}
	base := scoreFor(t, cards, 1, 1<<12)
	if base != float64(3*n) {
		t.Fatalf("1 reducer copies %v tuples, want %d", base, 3*n)
	}
	two := scoreFor(t, cards, 2, 1<<12)
	// Fig. 5(b/c): the 2-component cut duplicates one dimension:
	// volume between 4n/3·... and 5n/3 of base — loosely, strictly
	// above base and at most 2× base.
	if two <= base || two > 2*base {
		t.Errorf("2 reducers copy %v, want in (%v, %v]", two, base, 2*base)
	}
	four := scoreFor(t, cards, 4, 1<<12)
	// Fig. 5(d/e): 4 components spread between 2× and 3× base.
	if four <= two || four > 3*base {
		t.Errorf("4 reducers copy %v, want in (%v, %v]", four, two, 3*base)
	}
}

// TestFig4MergePlan executes the §4.2 walk-through end to end: three
// jobs over shared relations merge pairwise on row IDs, and the final
// result matches the one-shot join.
func TestFig4MergePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mk := func(name string) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
		for i := 0; i < 18; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(10)))})
		}
		return r
	}
	db, err := NewDB(200, 1, mk("R1"), mk("R2"), mk("R3"), mk("R4"), mk("R5"))
	if err != nil {
		t.Fatal(err)
	}
	// A 5-relation chain query evaluated as three jobs:
	// e'_i = {θ1,θ2} over R1,R2,R3; e'_j = {θ3} over R3,R4;
	// e'_k = {θ4} over R4,R5 — then merged as in Fig. 4.
	q := query.MustNew("fig4", []string{"R1", "R2", "R3", "R4", "R5"},
		[]predicate.Condition{
			predicate.C("R1", "v", predicate.LE, "R2", "v"),
			predicate.C("R2", "v", predicate.LT, "R3", "v"),
			predicate.C("R3", "v", predicate.GE, "R4", "v"),
			predicate.C("R4", "v", predicate.NE, "R5", "v"),
		})
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	runJob := func(name string, relNames []string, conds predicate.Conjunction) *relation.Relation {
		rels := make([]*relation.Relation, len(relNames))
		for i, n := range relNames {
			rels[i], _ = db.Relation(n)
		}
		job, err := BuildThetaJob(name, rels, conds, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mr.Run(context.Background(), cfg, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	ei := runJob("ei", []string{"R1", "R2", "R3"}, predicate.Conjunction{q.Conditions[0], q.Conditions[1]})
	ej := runJob("ej", []string{"R3", "R4"}, predicate.Conjunction{q.Conditions[2]})
	ek := runJob("ek", []string{"R4", "R5"}, predicate.Conjunction{q.Conditions[3]})

	merged, steps, err := mergeFullWidth("fig4", []*relation.Relation{ei, ej, ek})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Errorf("merge steps = %d, want 2 (as in Fig. 4)", len(steps))
	}
	got, wantRS := resultSet(merged), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("Fig. 4 plan result mismatch: %d vs %d rows: %v",
			got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
	}
}
