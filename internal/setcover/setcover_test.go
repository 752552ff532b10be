package setcover

import (
	"math"
	"math/rand"
	"testing"
)

// totalWeight sums the weights of the identified sets.
func totalWeight(sets []Set, ids []int) float64 {
	byID := make(map[int]float64, len(sets))
	for _, s := range sets {
		byID[s.ID] = s.Weight
	}
	var w float64
	for _, id := range ids {
		w += byID[id]
	}
	return w
}

func TestGreedyBasic(t *testing.T) {
	universe := []int{1, 2, 3, 4, 5}
	sets := []Set{
		{ID: 1, Elems: []int{1, 2, 3}, Weight: 3},
		{ID: 2, Elems: []int{4, 5}, Weight: 2},
		{ID: 3, Elems: []int{1}, Weight: 2}, // ratio 0.5: never competitive
	}
	ids, err := Greedy(universe, sets)
	if err != nil {
		t.Fatal(err)
	}
	if !Covers(universe, sets, ids) {
		t.Fatalf("greedy result %v does not cover", ids)
	}
	if len(ids) != 2 {
		t.Errorf("greedy chose %v, want 2 sets", ids)
	}
}

func TestGreedyValidation(t *testing.T) {
	sets := []Set{{ID: 1, Elems: []int{1}, Weight: 1}}
	if _, err := Greedy(nil, sets); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := Greedy([]int{1}, nil); err == nil {
		t.Error("no sets accepted")
	}
	if _, err := Greedy([]int{1, 2}, sets); err == nil {
		t.Error("uncoverable universe accepted")
	}
	if _, err := Greedy([]int{99}, sets); err == nil {
		t.Error("element out of range accepted")
	}
	if _, err := Greedy([]int{1}, []Set{{ID: 1, Elems: []int{1}, Weight: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Greedy([]int{1}, []Set{{ID: 1, Elems: []int{70}, Weight: 1}}); err == nil {
		t.Error("set element out of range accepted")
	}
}

func TestGreedyZeroWeightPreferred(t *testing.T) {
	universe := []int{1, 2}
	sets := []Set{
		{ID: 1, Elems: []int{1, 2}, Weight: 5},
		{ID: 2, Elems: []int{1}, Weight: 0},
		{ID: 3, Elems: []int{2}, Weight: 0},
	}
	ids, err := Greedy(universe, sets)
	if err != nil {
		t.Fatal(err)
	}
	w := totalWeight(sets, ids)
	if w != 0 {
		t.Errorf("greedy weight %v, want 0 (chose %v)", w, ids)
	}
}

func TestExhaustiveOptimal(t *testing.T) {
	universe := []int{1, 2, 3, 4}
	sets := []Set{
		{ID: 1, Elems: []int{1, 2}, Weight: 2},
		{ID: 2, Elems: []int{3, 4}, Weight: 2},
		{ID: 3, Elems: []int{1, 2, 3, 4}, Weight: 3.5},
		{ID: 4, Elems: []int{2, 3}, Weight: 1},
	}
	ids, w, err := Exhaustive(universe, sets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3.5 || len(ids) != 1 || ids[0] != 3 {
		t.Errorf("exhaustive = %v (w=%v), want set 3 at 3.5", ids, w)
	}
}

func TestExhaustiveLimits(t *testing.T) {
	universe := []int{1}
	var sets []Set
	for i := 0; i < 25; i++ {
		sets = append(sets, Set{ID: i, Elems: []int{1}, Weight: 1})
	}
	if _, _, err := Exhaustive(universe, sets, 20); err == nil {
		t.Error("oversized instance accepted")
	}
}

// Greedy is within Hn = ln(n)+1 of optimum on random instances
// (Feige's threshold); verify against exhaustive on small instances.
func TestGreedyApproximationRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 8
	universe := make([]int, n)
	for i := range universe {
		universe[i] = i + 1
	}
	hn := 0.0
	for i := 1; i <= n; i++ {
		hn += 1 / float64(i)
	}
	for trial := 0; trial < 60; trial++ {
		var sets []Set
		// Guarantee coverability with singletons, then add random sets.
		for i := 0; i < n; i++ {
			sets = append(sets, Set{ID: i + 1, Elems: []int{i + 1}, Weight: 1 + rng.Float64()*3})
		}
		for i := 0; i < 8; i++ {
			var elems []int
			for e := 1; e <= n; e++ {
				if rng.Intn(2) == 0 {
					elems = append(elems, e)
				}
			}
			if len(elems) == 0 {
				elems = []int{1}
			}
			sets = append(sets, Set{ID: 100 + i, Elems: elems, Weight: 0.5 + rng.Float64()*4})
		}
		greedyIDs, err := Greedy(universe, sets)
		if err != nil {
			t.Fatal(err)
		}
		if !Covers(universe, sets, greedyIDs) {
			t.Fatal("greedy does not cover")
		}
		_, optW, err := Exhaustive(universe, sets, 16)
		if err != nil {
			t.Fatal(err)
		}
		gw := totalWeight(sets, greedyIDs)
		if gw > optW*hn+1e-9 {
			t.Errorf("trial %d: greedy %v exceeds Hn bound %v (opt %v)", trial, gw, optW*hn, optW)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	universe := []int{1, 2, 3}
	sets := []Set{
		{ID: 1, Elems: []int{1, 2}, Weight: 2},
		{ID: 2, Elems: []int{2, 3}, Weight: 2},
		{ID: 3, Elems: []int{1, 3}, Weight: 2},
	}
	first, err := Greedy(universe, sets)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := Greedy(universe, sets)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(first) {
			t.Fatal("nondeterministic cover size")
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatal("nondeterministic cover order")
			}
		}
	}
}

func TestCoversAndTotalWeight(t *testing.T) {
	universe := []int{1, 2}
	sets := []Set{
		{ID: 7, Elems: []int{1}, Weight: 1.5},
		{ID: 8, Elems: []int{2}, Weight: 2.5},
	}
	if Covers(universe, sets, []int{7}) {
		t.Error("partial cover reported complete")
	}
	if !Covers(universe, sets, []int{7, 8}) {
		t.Error("complete cover reported partial")
	}
	if w := totalWeight(sets, []int{7, 8}); math.Abs(w-4) > 1e-12 {
		t.Errorf("totalWeight = %v", w)
	}
}
