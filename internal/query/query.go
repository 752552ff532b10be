// Package query represents multi-way theta-join queries ("N-join"
// queries in the paper's terminology, §3.1) and their join graphs.
//
// A Query names m relations and n theta conditions; its JoinGraph G_J
// (Definition 1) has one vertex per relation and one labelled edge per
// condition. The join-path graph machinery of internal/joinpath
// enumerates candidate MapReduce jobs over this graph.
package query

import (
	"fmt"
	"strings"

	"repro/internal/predicate"
)

// Query is an N-join query: a projection-free conjunctive theta-join
// over named relations. Output columns (if any) are applied after the
// join by the harness; the planner's concern is the join itself.
type Query struct {
	Name       string
	Relations  []string
	Conditions []predicate.Condition
}

// New validates and builds a query. Conditions are assigned 1-based IDs
// (θ_1 … θ_n, matching the paper's edge labels). Every condition must
// reference two distinct declared relations, and the join graph must be
// connected (Definition 1 requires a connected graph).
func New(name string, relations []string, conditions []predicate.Condition) (*Query, error) {
	if len(relations) < 2 {
		return nil, fmt.Errorf("query %s: need at least 2 relations, got %d", name, len(relations))
	}
	declared := make(map[string]bool, len(relations))
	for _, r := range relations {
		if r == "" {
			return nil, fmt.Errorf("query %s: empty relation name", name)
		}
		if declared[r] {
			return nil, fmt.Errorf("query %s: duplicate relation %q", name, r)
		}
		declared[r] = true
	}
	if len(conditions) == 0 {
		return nil, fmt.Errorf("query %s: no join conditions", name)
	}
	conds := append([]predicate.Condition(nil), conditions...)
	for i := range conds {
		c := &conds[i]
		c.ID = i + 1
		if !declared[c.Left] {
			return nil, fmt.Errorf("query %s: condition %s references undeclared relation %q", name, c, c.Left)
		}
		if !declared[c.Right] {
			return nil, fmt.Errorf("query %s: condition %s references undeclared relation %q", name, c, c.Right)
		}
		if c.Left == c.Right {
			return nil, fmt.Errorf("query %s: condition %s is a self-loop; self-joins must alias the relation twice", name, c)
		}
	}
	q := &Query{Name: name, Relations: append([]string(nil), relations...), Conditions: conds}
	if !q.JoinGraph().Connected() {
		return nil, fmt.Errorf("query %s: join graph is not connected", name)
	}
	return q, nil
}

// MustNew is New that panics on error, for statically known queries.
func MustNew(name string, relations []string, conditions []predicate.Condition) *Query {
	q, err := New(name, relations, conditions)
	if err != nil {
		panic(err)
	}
	return q
}

// Condition returns the condition with the given 1-based ID.
func (q *Query) Condition(id int) (predicate.Condition, bool) {
	if id < 1 || id > len(q.Conditions) {
		return predicate.Condition{}, false
	}
	return q.Conditions[id-1], true
}

// ConditionIDs returns all condition IDs (1..n).
func (q *Query) ConditionIDs() []int {
	ids := make([]int, len(q.Conditions))
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// String renders the query as SQL-ish text.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: JOIN %s WHERE ", q.Name, strings.Join(q.Relations, ", "))
	for i, c := range q.Conditions {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// JoinGraph builds G_J (Definition 1) for the query.
func (q *Query) JoinGraph() *JoinGraph {
	g := &JoinGraph{
		Vertices: append([]string(nil), q.Relations...),
		adj:      make(map[string][]Edge),
	}
	for _, c := range q.Conditions {
		e := Edge{ID: c.ID, U: c.Left, V: c.Right, Cond: c}
		g.Edges = append(g.Edges, e)
		g.adj[c.Left] = append(g.adj[c.Left], e)
		g.adj[c.Right] = append(g.adj[c.Right], e)
	}
	return g
}

// Edge is a labelled edge of the join graph: the θ_i condition between
// two relations. ID matches the condition's 1-based ordinal.
type Edge struct {
	ID   int
	U, V string
	Cond predicate.Condition
}

// Other returns the opposite endpoint.
func (e Edge) Other(v string) string {
	if e.U == v {
		return e.V
	}
	return e.U
}

// JoinGraph is G_J = ⟨V, E, L⟩ of Definition 1.
type JoinGraph struct {
	Vertices []string
	Edges    []Edge
	adj      map[string][]Edge
}

// Adjacent returns the edges incident to a vertex.
func (g *JoinGraph) Adjacent(v string) []Edge { return g.adj[v] }

// Connected reports whether the graph is connected.
func (g *JoinGraph) Connected() bool {
	if len(g.Vertices) == 0 {
		return true
	}
	seen := map[string]bool{g.Vertices[0]: true}
	stack := []string{g.Vertices[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			w := e.Other(v)
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(g.Vertices)
}

// SubgraphConditions returns the conditions for the edge IDs in input
// order.
func (g *JoinGraph) SubgraphConditions(ids []int) (predicate.Conjunction, error) {
	byID := make(map[int]Edge, len(g.Edges))
	for _, e := range g.Edges {
		byID[e.ID] = e
	}
	cj := make(predicate.Conjunction, 0, len(ids))
	for _, id := range ids {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("query: no edge with id %d", id)
		}
		cj = append(cj, e.Cond)
	}
	return cj, nil
}
