package joinpath

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/predicate"
	"repro/internal/query"
)

// fig1 builds the Fig. 1 join graph: R1–R5 with
// θ1(R1,R2) θ2(R2,R3) θ3(R1,R3) θ4(R3,R4) θ5(R3,R5) θ6(R4,R5).
func fig1(t *testing.T) *query.JoinGraph {
	t.Helper()
	q, err := query.New("fig1",
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
	return q.JoinGraph()
}

// unitCost weights every candidate by its length so shorter paths are
// cheaper; reducers equal length.
func unitCost(ids []int) (float64, int, error) {
	return float64(len(ids)), len(ids), nil
}

// allPaths enumerates every candidate of g without pruning.
func allPaths(t *testing.T, g *query.JoinGraph, maxLen int) []PathEdge {
	t.Helper()
	cands, err := enumerate(g, maxLen, maxCandidates)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func edgeSet(edges []PathEdge) map[string]PathEdge {
	m := make(map[string]PathEdge, len(edges))
	for _, e := range edges {
		key := e.U + "-" + e.V + ":" + e.Label()
		m[key] = e
	}
	return m
}

func TestEnumerateNoPruning(t *testing.T) {
	g := allPaths(t, fig1(t), 6)
	set := edgeSet(g)
	// Fig. 1's adjacency matrix lists specific paths; spot-check a few.
	// R1–R2 direct: {1}.
	if _, ok := set["R1-R2:[1]"]; !ok {
		t.Error("missing direct path R1-R2 {1}")
	}
	// R1–R2 via R3: {2,3}.
	if _, ok := set["R1-R2:[2 3]"]; !ok {
		t.Error("missing path R1-R2 {2,3} (via R3)")
	}
	// The paper's showcase path R1–R2 {3,4,6,5,2}: R1-θ3-R3-θ4-R4-θ6-R5-θ5-R3-θ2-R2.
	if _, ok := set["R1-R2:[2 3 4 5 6]"]; !ok {
		t.Error("missing 5-hop path R1-R2 {2,3,4,5,6}")
	}
	// R3–R4: {4}, {6,5} and the long way {4,3,1,2}? No — {3,1,2} is a
	// circuit at R3; Fig. 1 lists R3-R4 paths {4}, {6,5}, {4,3,1,2}… we
	// check {4} and {5,6}.
	if _, ok := set["R3-R4:[4]"]; !ok {
		t.Error("missing direct path R3-R4 {4}")
	}
	if _, ok := set["R3-R4:[5 6]"]; !ok {
		t.Error("missing path R3-R4 {5,6}")
	}
	// Circuits are valid candidates: the triangle {1,2,3} must appear
	// (as a self-path at some vertex) — one MRJ can evaluate a cyclic
	// condition set.
	foundTriangle := false
	for _, e := range g {
		if e.Label() == "[1 2 3]" {
			foundTriangle = true
		}
	}
	if !foundTriangle {
		t.Error("missing triangle circuit {1,2,3}")
	}
	// Every label set must be a connected path: at minimum non-empty
	// and with ≤ 6 conditions.
	for _, e := range g {
		if len(e.EdgeIDs) == 0 || len(e.EdgeIDs) > 6 {
			t.Errorf("bad label set %v", e.EdgeIDs)
		}
	}
}

func TestNoEdgeRepeating(t *testing.T) {
	for _, e := range allPaths(t, fig1(t), 6) {
		seen := map[int]bool{}
		for _, id := range e.EdgeIDs {
			if seen[id] {
				t.Fatalf("edge repeated in %v", e.EdgeIDs)
			}
			seen[id] = true
		}
	}
}

func TestMaxPathLen(t *testing.T) {
	g := allPaths(t, fig1(t), 2)
	for _, e := range g {
		if len(e.EdgeIDs) > 2 {
			t.Errorf("path %v longer than MaxPathLen", e.EdgeIDs)
		}
	}
	// All six single edges must be present.
	count1 := 0
	for _, e := range g {
		if len(e.EdgeIDs) == 1 {
			count1++
		}
	}
	if count1 != 6 {
		t.Errorf("single-edge candidates = %d, want 6", count1)
	}
}

func TestLemma1Pruning(t *testing.T) {
	// Cost function that makes multi-condition jobs very expensive and
	// resource hungry: every multi-edge path should be dominated by its
	// single-condition constituents.
	expensive := func(ids []int) (float64, int, error) {
		if len(ids) == 1 {
			return 1, 1, nil
		}
		return 1000 * float64(len(ids)), 64, nil
	}
	g, err := Build(fig1(t), expensive, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g {
		if len(e.EdgeIDs) > 2 {
			t.Errorf("expensive path %v survived pruning", e.EdgeIDs)
		}
	}
	if len(g) == len(allPaths(t, fig1(t), 6)) {
		t.Error("no candidates pruned")
	}
	// Single conditions must all survive (they are the cheapest cover).
	count1 := 0
	for _, e := range g {
		if len(e.EdgeIDs) == 1 {
			count1++
		}
	}
	if count1 != 6 {
		t.Errorf("single-edge survivors = %d, want 6", count1)
	}
}

func TestCheapMultiEdgesSurvive(t *testing.T) {
	// Opposite cost regime: longer paths are cheaper per condition and
	// use fewer reducers than the sum of their parts — Lemma 1 must
	// keep them.
	economies := func(ids []int) (float64, int, error) {
		return 10 / float64(len(ids)), 1, nil
	}
	g, err := Build(fig1(t), economies, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	for _, e := range g {
		if len(e.EdgeIDs) > maxLen {
			maxLen = len(e.EdgeIDs)
		}
	}
	if maxLen < 3 {
		t.Errorf("longest surviving path %d, want >= 3", maxLen)
	}
}

func TestChainGraphPaths(t *testing.T) {
	// A simple chain A-B-C-D: paths are exactly the contiguous
	// subchains: {1},{2},{3},{1,2},{2,3},{1,2,3} → 6 edges.
	q, err := query.New("chain",
		[]string{"A", "B", "C", "D"},
		[]predicate.Condition{
			predicate.C("A", "x", predicate.LT, "B", "x"),
			predicate.C("B", "x", predicate.LT, "C", "x"),
			predicate.C("C", "x", predicate.LT, "D", "x"),
		})
	if err != nil {
		t.Fatal(err)
	}
	g := allPaths(t, q.JoinGraph(), 3)
	if len(g) != 6 {
		var labels []string
		for _, e := range g {
			labels = append(labels, e.U+"-"+e.V+":"+e.Label())
		}
		sort.Strings(labels)
		t.Errorf("chain candidates = %d, want 6: %s", len(g), strings.Join(labels, " "))
	}
}

func TestBuildErrors(t *testing.T) {
	q, _ := query.New("q", []string{"A", "B"},
		[]predicate.Condition{predicate.C("A", "x", predicate.LT, "B", "x")})
	if _, err := Build(q.JoinGraph(), func(ids []int) (float64, int, error) {
		return 0, 0, errFake
	}, 0); err == nil {
		t.Error("cost error not propagated")
	}
	empty := &query.JoinGraph{Vertices: []string{"A"}}
	if _, err := Build(empty, unitCost, 0); err == nil {
		t.Error("empty graph accepted")
	}
}

var errFake = errFakeT{}

type errFakeT struct{}

func (errFakeT) Error() string { return "fake" }

func TestIDsToMask(t *testing.T) {
	if IDsToMask([]int{1, 3}) != 0b101 {
		t.Error("mask wrong")
	}
	if IDsToMask(nil) != 0 {
		t.Error("empty mask wrong")
	}
}

func TestDeterministicOutput(t *testing.T) {
	var prev []string
	for trial := 0; trial < 3; trial++ {
		g, err := Build(fig1(t), unitCost, 0)
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, e := range g {
			labels = append(labels, e.U+e.V+e.Label())
		}
		if prev != nil {
			if len(prev) != len(labels) {
				t.Fatal("nondeterministic edge count")
			}
			for i := range labels {
				if labels[i] != prev[i] {
					t.Fatal("nondeterministic edge order")
				}
			}
		}
		prev = labels
	}
}

func TestCandidateOverflow(t *testing.T) {
	if _, err := enumerate(fig1(t), 6, 3); err == nil {
		t.Error("overflow not reported")
	}
}

// TestFig1JoinPathGraph verifies the paper's Fig. 1 walk-through: the
// join-path graph of the 5-relation example contains the adjacency-
// matrix entries the figure lists, including the Eulerian circuit
// {1..6} (the graph has all-even degrees, so E(G_JP) exists).
func TestFig1JoinPathGraph(t *testing.T) {
	set := map[string]bool{}
	for _, e := range allPaths(t, fig1(t), 6) {
		set[e.Label()] = true
	}
	// Entries read off Fig. 1's matrix (as condition-ID sets).
	for _, want := range []string{
		"[1]",           // R1-R2 direct
		"[2 3]",         // R1-R2 via R3
		"[2 3 4 5 6]",   // R1-R2 the long way (θ3 θ4 θ6 θ5 θ2)
		"[3]",           // R1-R3 direct
		"[1 2]",         // R1-R3 via R2
		"[4]",           // R3-R4
		"[5 6]",         // R3-R4 via R5
		"[5]",           // R3-R5
		"[4 6]",         // R3-R5 via R4
		"[6]",           // R4-R5
		"[4 5]",         // R4-R5 via R3
		"[1 2 3 4 5 6]", // the Eulerian circuit E(G_JP)
	} {
		if !set[want] {
			t.Errorf("Fig. 1 entry %s missing from G_JP", want)
		}
	}
}
