package core

import (
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// callsRelation is a small call table with a string station column bs
// and an int day column d.
func callsRelation() *relation.Relation {
	r := relation.New("calls", relation.MustSchema(
		relation.Column{Name: "bs", Kind: relation.KindString},
		relation.Column{Name: "d", Kind: relation.KindInt},
	))
	for i, s := range []string{"owl", "ant", "fox", "ant", "eel"} {
		r.MustAppend(relation.Tuple{relation.Str(s), relation.Int(int64(i % 3))})
	}
	return r
}

// TestPlanRefusesMixedKinds: a string compared with a number has no key
// mode, so Plan and PlanCover refuse it before costing, with an error
// naming both columns and their kinds, instead of answering with
// Compare's made-up cross-kind order.
func TestPlanRefusesMixedKinds(t *testing.T) {
	db := newTestDB(t, callsRelation())
	q, aliases, err := query.Parse("mixed", "FROM calls t1, calls t2 WHERE t1.bs > t2.d")
	if err != nil {
		t.Fatal(err)
	}
	view, err := db.View(aliases)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(testConfig(), 8)
	_, planErr := pl.Plan(q, view)
	_, coverErr := pl.PlanCover(q, view, [][]int{{1}})
	for name, err := range map[string]error{"Plan": planErr, "PlanCover": coverErr} {
		if err == nil {
			t.Fatalf("%s accepted t1.bs > t2.d", name)
		}
		for _, want := range []string{"t1.bs (string)", "t2.d (int)"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not name %s", name, err, want)
			}
		}
	}
	if _, err := Naive(q, view); err == nil {
		t.Error("Naive accepted t1.bs > t2.d")
	}
}

// TestHeaderOnlyStringJoin: every string column of a header-only CSV
// gets an empty dictionary, so a string equi-join whose sides both read
// it plans, runs and returns no rows.
func TestHeaderOnlyStringJoin(t *testing.T) {
	empty, err := relation.ReadCSV(strings.NewReader("bs:string,d:int\n"), "empty")
	if err != nil {
		t.Fatal(err)
	}
	db := newTestDB(t, empty)
	r, err := db.Relation("empty")
	if err != nil {
		t.Fatal(err)
	}
	if d := r.DictOf(0); d == nil || d.Len() != 0 {
		t.Fatalf("header-only string column has dictionary %v, want an empty one", d)
	}
	q, aliases, err := query.Parse("q", "FROM empty e1, empty e2 WHERE e1.bs = e2.bs")
	if err != nil {
		t.Fatal(err)
	}
	view, err := db.View(aliases)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(testConfig(), 8)
	plan, err := pl.Plan(q, view)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Execute(plan, view)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 {
		t.Errorf("self-join of an empty relation returned %d rows", res.Rows)
	}
}

// TestNewDBRejectsMistypedStringColumn: a non-string value in a string
// column is a load error naming the relation, column and row.
func TestNewDBRejectsMistypedStringColumn(t *testing.T) {
	r := callsRelation()
	r.Tuples[3][0] = relation.Int(7)
	_, err := NewDB(100, 1, r)
	if err == nil {
		t.Fatal("NewDB accepted an int in a string column")
	}
	for _, want := range []string{"calls.bs", "row 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
