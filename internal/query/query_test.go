package query

import (
	"testing"

	"repro/internal/predicate"
)

func chain3(t *testing.T) *Query {
	t.Helper()
	q, err := New("chain3",
		[]string{"A", "B", "C"},
		[]predicate.Condition{
			predicate.C("A", "x", predicate.LT, "B", "y"),
			predicate.C("B", "y", predicate.GE, "C", "z"),
		})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// fig1Graph builds the 5-relation, 6-condition example of Fig. 1.
// Edges: θ1(R1,R2) θ2(R2,R3) θ3(R1,R3) θ4(R3,R4) θ5(R3,R5) θ6(R4,R5).
func fig1Graph(t *testing.T) *Query {
	t.Helper()
	q, err := New("fig1",
		[]string{"R1", "R2", "R3", "R4", "R5"},
		[]predicate.Condition{
			predicate.C("R1", "a", predicate.LT, "R2", "a"),
			predicate.C("R2", "a", predicate.LT, "R3", "a"),
			predicate.C("R1", "a", predicate.LT, "R3", "a"),
			predicate.C("R3", "a", predicate.LT, "R4", "a"),
			predicate.C("R3", "a", predicate.LT, "R5", "a"),
			predicate.C("R4", "a", predicate.LT, "R5", "a"),
		})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewValidation(t *testing.T) {
	cond := predicate.C("A", "x", predicate.LT, "B", "y")
	if _, err := New("q", []string{"A"}, []predicate.Condition{cond}); err == nil {
		t.Error("single relation accepted")
	}
	if _, err := New("q", []string{"A", "A"}, []predicate.Condition{cond}); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := New("q", []string{"A", "B"}, nil); err == nil {
		t.Error("no conditions accepted")
	}
	if _, err := New("q", []string{"A", "B"}, []predicate.Condition{predicate.C("A", "x", predicate.LT, "Z", "y")}); err == nil {
		t.Error("undeclared relation accepted")
	}
	if _, err := New("q", []string{"A", "B"}, []predicate.Condition{predicate.C("A", "x", predicate.LT, "A", "y")}); err == nil {
		t.Error("self-loop accepted")
	}
	// Disconnected: A-B edge only, C declared.
	if _, err := New("q", []string{"A", "B", "C"}, []predicate.Condition{cond}); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := New("q", []string{"A", "B", ""}, []predicate.Condition{cond}); err == nil {
		t.Error("empty relation name accepted")
	}
}

func TestConditionIDsAssigned(t *testing.T) {
	q := chain3(t)
	for i, c := range q.Conditions {
		if c.ID != i+1 {
			t.Errorf("condition %d has ID %d", i, c.ID)
		}
	}
	c, ok := q.Condition(2)
	if !ok || c.Left != "B" {
		t.Errorf("Condition(2) = %v, %v", c, ok)
	}
	if _, ok := q.Condition(0); ok {
		t.Error("Condition(0) succeeded")
	}
	if _, ok := q.Condition(99); ok {
		t.Error("Condition(99) succeeded")
	}
	ids := q.ConditionIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("ConditionIDs = %v", ids)
	}
}

func TestJoinGraphStructure(t *testing.T) {
	g := fig1Graph(t).JoinGraph()
	if len(g.Vertices) != 5 || len(g.Edges) != 6 {
		t.Fatalf("graph shape %d vertices %d edges", len(g.Vertices), len(g.Edges))
	}
	if d := len(g.Adjacent("R3")); d != 4 {
		t.Errorf("deg(R3) = %d, want 4", d)
	}
	if d := len(g.Adjacent("R1")); d != 2 {
		t.Errorf("deg(R1) = %d, want 2", d)
	}
	if !g.Connected() {
		t.Error("fig1 graph not connected")
	}
}

func TestSubgraphConditions(t *testing.T) {
	g := fig1Graph(t).JoinGraph()
	cj, err := g.SubgraphConditions([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cj) != 2 || cj[0].ID != 2 || cj[1].ID != 4 {
		t.Errorf("conjunction = %v", cj)
	}
	if _, err := g.SubgraphConditions([]int{99}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestQueryString(t *testing.T) {
	q := chain3(t)
	s := q.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String() = %q", s)
	}
}
