// Package setcover solves the weighted set-cover instances arising in
// T_opt selection (§5.2): after G'_JP supplies candidate MapReduce
// jobs, a sufficient subset covering every join condition must be
// chosen at minimum cost. The paper uses the greedy algorithm, which
// achieves the ln(n) approximation threshold of Feige [14]; an
// exhaustive solver covers small instances (planning real queries,
// whose graphs have at most a handful of conditions, and validating
// greedy's approximation ratio in tests).
package setcover

import (
	"fmt"
	"math/bits"
	"sort"
)

// Set is one candidate: it covers Elems (1-based element IDs ≤ 63) at
// the given weight.
type Set struct {
	ID     int
	Elems  []int
	Weight float64
}

func (s Set) mask() uint64 {
	var m uint64
	for _, e := range s.Elems {
		m |= 1 << uint(e-1)
	}
	return m
}

func universeMask(universe []int) uint64 {
	var m uint64
	for _, e := range universe {
		m |= 1 << uint(e-1)
	}
	return m
}

func validate(universe []int, sets []Set) error {
	if len(universe) == 0 {
		return fmt.Errorf("setcover: empty universe")
	}
	for _, e := range universe {
		if e < 1 || e > 63 {
			return fmt.Errorf("setcover: element %d outside [1,63]", e)
		}
	}
	if len(sets) == 0 {
		return fmt.Errorf("setcover: no candidate sets")
	}
	for _, s := range sets {
		if s.Weight < 0 {
			return fmt.Errorf("setcover: set %d has negative weight", s.ID)
		}
		for _, e := range s.Elems {
			if e < 1 || e > 63 {
				return fmt.Errorf("setcover: set %d element %d outside [1,63]", s.ID, e)
			}
		}
	}
	var cover uint64
	for _, s := range sets {
		cover |= s.mask()
	}
	if want := universeMask(universe); cover&want != want {
		return fmt.Errorf("setcover: candidates cannot cover the universe")
	}
	return nil
}

// Greedy picks sets by maximum newly-covered-elements per unit weight
// until the universe is covered, returning chosen set IDs in selection
// order. Deterministic: ties break on lower weight, then lower ID.
func Greedy(universe []int, sets []Set) ([]int, error) {
	if err := validate(universe, sets); err != nil {
		return nil, err
	}
	want := universeMask(universe)
	var covered uint64
	var chosen []int
	remaining := append([]Set(nil), sets...)
	for covered&want != want {
		bestIdx := -1
		bestRatio := 0.0
		for i, s := range remaining {
			gain := bits.OnesCount64(s.mask() & want &^ covered)
			if gain == 0 {
				continue
			}
			var ratio float64
			if s.Weight == 0 {
				ratio = float64(gain) * 1e18 // free sets first
			} else {
				ratio = float64(gain) / s.Weight
			}
			if bestIdx == -1 || ratio > bestRatio ||
				(ratio == bestRatio && less(s, remaining[bestIdx])) {
				bestIdx, bestRatio = i, ratio
			}
		}
		if bestIdx == -1 {
			return nil, fmt.Errorf("setcover: greedy stalled (universe uncoverable)")
		}
		covered |= remaining[bestIdx].mask()
		chosen = append(chosen, remaining[bestIdx].ID)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chosen, nil
}

func less(a, b Set) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.ID < b.ID
}

// Exhaustive finds the minimum-total-weight cover by trying all 2^k
// subsets. It refuses instances with more than maxSets candidates
// (default 20). Returns the chosen IDs (ascending), total weight.
func Exhaustive(universe []int, sets []Set, maxSets int) ([]int, float64, error) {
	if err := validate(universe, sets); err != nil {
		return nil, 0, err
	}
	if maxSets <= 0 {
		maxSets = 20
	}
	if len(sets) > maxSets {
		return nil, 0, fmt.Errorf("setcover: %d sets exceed exhaustive limit %d", len(sets), maxSets)
	}
	want := universeMask(universe)
	masks := make([]uint64, len(sets))
	for i, s := range sets {
		masks[i] = s.mask()
	}
	bestWeight := -1.0
	var bestSubset uint64
	for sub := uint64(1); sub < uint64(1)<<uint(len(sets)); sub++ {
		var cover uint64
		var weight float64
		for i := 0; i < len(sets); i++ {
			if sub&(1<<uint(i)) != 0 {
				cover |= masks[i]
				weight += sets[i].Weight
			}
		}
		if cover&want != want {
			continue
		}
		if bestWeight < 0 || weight < bestWeight {
			bestWeight = weight
			bestSubset = sub
		}
	}
	if bestWeight < 0 {
		return nil, 0, fmt.Errorf("setcover: no cover exists")
	}
	var ids []int
	for i := 0; i < len(sets); i++ {
		if bestSubset&(1<<uint(i)) != 0 {
			ids = append(ids, sets[i].ID)
		}
	}
	sort.Ints(ids)
	return ids, bestWeight, nil
}

// Covers reports whether the identified sets cover the universe.
func Covers(universe []int, sets []Set, ids []int) bool {
	byID := make(map[int]uint64, len(sets))
	for _, s := range sets {
		byID[s.ID] = s.mask()
	}
	var cover uint64
	for _, id := range ids {
		cover |= byID[id]
	}
	want := universeMask(universe)
	return cover&want == want
}
