// Package joinpath constructs the pruned join-path graph G'_JP of the
// paper (§3.1 Definition 3, §5.2 Algorithm 2).
//
// An edge e' of the join-path graph is a no-edge-repeating path between
// two vertices of the join graph G_J: a set of theta conditions that
// one MapReduce job can evaluate together. The full G_JP is
// #P-complete to build (Theorem 1: it subsumes counting Eulerian
// trails), so Algorithm 2 builds a sufficient subgraph by enumerating
// L-hop paths in increasing length and pruning candidates that are
// dominated under Lemma 1 (a cheaper group of already-accepted edges
// covers the same conditions with fewer processing units). Lemma 2
// (prune every superset of a pruned label set) is not applied: it
// assumes every candidate uses one partitioning scheme, and with the
// planner's three operators a superset can turn hash-equi or share-grid
// and cost less than the subset Lemma 1 pruned.
package joinpath

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/query"
)

// PathEdge is one e' ∈ G'_JP.E: a candidate MapReduce job.
type PathEdge struct {
	U, V    string // endpoints in G_J
	EdgeIDs []int  // l'(e'): the condition IDs covered, ascending
	Weight  float64
	// Reducers is s(e'): the reduce-task count achieving Weight.
	Reducers int
	mask     uint64
}

// Label returns the condition-ID set as a canonical string, for
// debugging and test assertions.
func (e PathEdge) Label() string {
	return fmt.Sprintf("%v", e.EdgeIDs)
}

// CostFunc estimates the minimum evaluation cost w(e') and the reducer
// allotment s(e') for a MapReduce job covering the given condition IDs.
// The planner supplies this from the Eq. 1–6 model.
type CostFunc func(edgeIDs []int) (weight float64, reducers int, err error)

// maxCandidates aborts pathological enumerations.
const maxCandidates = 100000

// Build runs Algorithm 2 on the join graph and returns G'_JP.E, the
// retained candidate jobs. maxPathLen caps L, the number of conditions
// per candidate; 0 means the total condition count (all lengths).
func Build(g *query.JoinGraph, cost CostFunc, maxPathLen int) ([]PathEdge, error) {
	n := len(g.Edges)
	if n == 0 {
		return nil, fmt.Errorf("joinpath: join graph has no edges")
	}
	if n > 63 {
		return nil, fmt.Errorf("joinpath: %d conditions exceed the 63-condition limit", n)
	}
	maxLen := maxPathLen
	if maxLen <= 0 || maxLen > n {
		maxLen = n
	}

	cands, err := enumerate(g, maxLen, maxCandidates)
	if err != nil {
		return nil, err
	}
	// Increasing path length first (Algorithm 2's L loop), then
	// deterministic tiebreak by endpoints and mask.
	sort.Slice(cands, func(a, b int) bool {
		la, lb := bits.OnesCount64(cands[a].mask), bits.OnesCount64(cands[b].mask)
		if la != lb {
			return la < lb
		}
		if cands[a].U != cands[b].U {
			return cands[a].U < cands[b].U
		}
		if cands[a].V != cands[b].V {
			return cands[a].V < cands[b].V
		}
		return cands[a].mask < cands[b].mask
	})

	// WL: accepted edges sorted ascending by weight (Alg. 2's sorted list).
	var out, wl []PathEdge
	for _, c := range cands {
		w, s, err := cost(c.EdgeIDs)
		if err != nil {
			return nil, fmt.Errorf("joinpath: costing %v: %w", c.EdgeIDs, err)
		}
		c.Weight, c.Reducers = w, s
		if dominatedByGroup(c, wl) {
			continue // Lemma 1: a cheaper accepted group covers these conditions
		}
		out = append(out, c)
		// Insert into WL keeping ascending weight order.
		pos := sort.Search(len(wl), func(i int) bool { return wl[i].Weight >= c.Weight })
		wl = append(wl, PathEdge{})
		copy(wl[pos+1:], wl[pos:])
		wl[pos] = c
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("joinpath: pruning removed every candidate")
	}
	return out, nil
}

// dominatedByGroup applies Lemma 1: scan the accepted edges in
// ascending weight order, greedily collecting edges that contribute
// uncovered conditions of c. If the group covers l'(c) while every
// member is strictly cheaper (guaranteed by stopping the scan at
// weight ≥ w(c)) and the group's total reducer demand does not exceed
// s(c), the candidate is dominated.
func dominatedByGroup(c PathEdge, wl []PathEdge) bool {
	var covered uint64
	var sumReducers int
	for _, e := range wl {
		if e.Weight >= c.Weight {
			break // condition 2 of Lemma 1 would fail from here on
		}
		add := e.mask & c.mask &^ covered
		if add == 0 {
			continue
		}
		covered |= add
		sumReducers += e.Reducers
		if covered&c.mask == c.mask {
			// Condition 3: the substitute group must not demand more
			// processing units than the candidate.
			return sumReducers <= c.Reducers
		}
	}
	return false
}

type dfsState struct {
	g        *query.JoinGraph
	maxLen   int
	maxCand  int
	seen     map[uint64]bool
	cands    []PathEdge
	overflow bool
}

// enumerate lists every no-edge-repeating path of length ≤ maxLen
// between every vertex pair, deduplicated by (endpoints, condition
// set) — the paper "only cares what edges are involved in a path".
func enumerate(g *query.JoinGraph, maxLen, maxCand int) ([]PathEdge, error) {
	st := &dfsState{g: g, maxLen: maxLen, maxCand: maxCand, seen: make(map[uint64]bool)}
	starts := append([]string(nil), g.Vertices...)
	sort.Strings(starts)
	for _, v := range starts {
		st.dfs(v, v, 0, 0)
		if st.overflow {
			return nil, fmt.Errorf("joinpath: candidate explosion beyond %d", maxCand)
		}
	}
	return st.cands, nil
}

func (st *dfsState) dfs(start, cur string, mask uint64, depth int) {
	if st.overflow {
		return
	}
	if depth > 0 {
		u, v := start, cur
		if u > v {
			u, v = v, u
		}
		// Candidates are determined by their condition set alone — the
		// MRJ evaluating {θ_i} is the same regardless of which path
		// traversal discovered it — so deduplication is by mask only.
		// Circuits (u == v, e.g. two parallel conditions between the
		// same relation pair traversed out and back) are valid
		// candidates: one job evaluating both conditions.
		if !st.seen[mask] {
			st.seen[mask] = true
			st.cands = append(st.cands, PathEdge{
				U: u, V: v,
				EdgeIDs: maskToIDs(mask),
				mask:    mask,
			})
			if len(st.cands) > st.maxCand {
				st.overflow = true
				return
			}
		}
	}
	if depth == st.maxLen {
		return
	}
	for _, e := range st.g.Adjacent(cur) {
		bit := uint64(1) << uint(e.ID-1)
		if mask&bit != 0 {
			continue // no-edge-repeating
		}
		st.dfs(start, e.Other(cur), mask|bit, depth+1)
	}
}

func maskToIDs(mask uint64) []int {
	var ids []int
	for mask != 0 {
		b := bits.TrailingZeros64(mask)
		ids = append(ids, b+1)
		mask &^= 1 << uint(b)
	}
	return ids
}

// IDsToMask converts condition IDs (1-based) to a bitmask; exported
// for the planner's set-cover bridge.
func IDsToMask(ids []int) uint64 {
	var m uint64
	for _, id := range ids {
		m |= 1 << uint(id-1)
	}
	return m
}
