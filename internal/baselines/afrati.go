package baselines

import (
	"fmt"
	"math"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// AfratiUllman implements the share-based one-job multiway EQUI-join
// of Afrati & Ullman [2]: the k_R reducers form a grid indexed by the
// join attributes; each attribute a_i receives a "share" s_i with
// Π s_i ≈ k_R, and a tuple knowing attributes {a_i} hashes each known
// attribute to its grid coordinate and replicates over the unknown
// ones. The paper contrasts this with its own method because share-
// based partitioning "only works for the Equi-join scenario" — the
// partition key must functionally determine co-location, which
// inequality predicates break.
//
// This implementation covers the chain equi-join R_1 ⋈ R_2 ⋈ … ⋈ R_m
// where consecutive relations join on one attribute each (m-1 join
// attributes). Shares are balanced by relation sizes following the
// Lagrangean solution of [2] (proportional to communication savings),
// rounded to a feasible integer grid.
func AfratiUllman(name string, rels []*relation.Relation, conds predicate.Conjunction, kr int) (*mr.Job, error) {
	m := len(rels)
	if m < 2 {
		return nil, fmt.Errorf("baselines: afrati-ullman needs >= 2 relations")
	}
	if len(conds) != m-1 {
		return nil, fmt.Errorf("baselines: afrati-ullman chain needs %d conditions, got %d", m-1, len(conds))
	}
	// Bind condition i between rels[i] and rels[i+1]; must be EQ.
	type attr struct {
		leftCol, rightCol int // column in rels[i], rels[i+1]
	}
	attrs := make([]attr, m-1)
	for i, c := range conds {
		if c.Op != predicate.EQ {
			return nil, fmt.Errorf("baselines: afrati-ullman requires equi conditions, got %s", c)
		}
		oc := c
		if oc.Left != rels[i].Name {
			oc = c.Reversed()
		}
		if oc.Left != rels[i].Name || oc.Right != rels[i+1].Name {
			return nil, fmt.Errorf("baselines: condition %s does not link %s-%s", c, rels[i].Name, rels[i+1].Name)
		}
		li, ok := rels[i].Schema.Lookup(oc.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("baselines: %s lacks %s", rels[i].Name, oc.LeftColumn)
		}
		ri, ok := rels[i+1].Schema.Lookup(oc.RightColumn)
		if !ok {
			return nil, fmt.Errorf("baselines: %s lacks %s", rels[i+1].Name, oc.RightColumn)
		}
		attrs[i] = attr{leftCol: li, rightCol: ri}
	}
	shares := computeShares(rels, kr)
	grid := 1
	for _, s := range shares {
		grid *= s
	}
	// Reducer id = mixed-radix index over the m-1 attribute shares.
	strides := make([]int, m-1)
	st := 1
	for i := m - 2; i >= 0; i-- {
		strides[i] = st
		st *= shares[i]
	}
	hashTo := func(v relation.Value, share int, dim int) int {
		return int(idHash(v, uint64(97+dim)) % uint64(share))
	}
	// Relation i knows attribute i-1 (right side) and attribute i
	// (left side); it replicates over all other attribute dimensions.
	inputs := make([]mr.Input, m)
	for i := range rels {
		i := i
		inputs[i] = mr.Input{
			Rel: rels[i],
			Map: func(t relation.Tuple, emit mr.Emitter) {
				known := make(map[int]int, 2) // attr dim → coord
				if i > 0 {
					known[i-1] = hashTo(t[attrs[i-1].rightCol], shares[i-1], i-1)
				}
				if i < m-1 {
					known[i] = hashTo(t[attrs[i].leftCol], shares[i], i)
				}
				emitAll(known, shares, strides, 0, 0, uint8(i), t, emit)
			},
		}
	}
	bound := make([]stepCond, 0, len(conds))
	// Precompute reducer-side verification between adjacent relations
	// using offsets into the concatenated tuple? Simpler: verify with
	// per-relation groups below.
	_ = bound
	outSchema := concatAll(rels)
	reduce := func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
		for _, g := range groups {
			if len(g) == 0 {
				return
			}
		}
		partial := make([]relation.Tuple, m)
		var rec func(j int)
		rec = func(j int) {
			if j == m {
				ctx.EmitConcat(partial...)
				return
			}
			for _, t := range groups[j] {
				ctx.AddWork(1)
				if j > 0 {
					lv := partial[j-1][attrs[j-1].leftCol]
					rv := t[attrs[j-1].rightCol]
					if relation.Compare(lv, rv) != 0 {
						continue
					}
				}
				partial[j] = t
				rec(j + 1)
			}
		}
		rec(0)
	}
	return &mr.Job{
		Name:         name,
		Inputs:       inputs,
		Reduce:       reduce,
		NumReducers:  grid,
		Partition:    mr.IdentityPartition,
		OutputName:   name,
		OutputSchema: outSchema,
	}, nil
}

// emitAll enumerates reducer coordinates: known dims fixed, unknown
// dims swept.
func emitAll(known map[int]int, shares, strides []int, dim, acc int, tag uint8, t relation.Tuple, emit mr.Emitter) {
	if dim == len(shares) {
		emit(uint64(acc), tag, t)
		return
	}
	if c, ok := known[dim]; ok {
		emitAll(known, shares, strides, dim+1, acc+c*strides[dim], tag, t, emit)
		return
	}
	for c := 0; c < shares[dim]; c++ {
		emitAll(known, shares, strides, dim+1, acc+c*strides[dim], tag, t, emit)
	}
}

// computeShares assigns each join attribute a share s_i ≥ 1 with
// Π s_i ≤ kr. Following [2], attributes adjacent to larger relations
// get bigger shares (they save more replication); we optimise by
// greedy doubling of the share whose increase reduces total
// communication the most.
func computeShares(rels []*relation.Relation, kr int) []int {
	m := len(rels)
	shares := make([]int, m-1)
	for i := range shares {
		shares[i] = 1
	}
	sizes := make([]float64, m)
	for i, r := range rels {
		sizes[i] = math.Max(1, float64(r.ModeledSize()))
	}
	// Communication: relation i is replicated Π_{j∉known(i)} s_j times.
	comm := func(sh []int) float64 {
		total := 0.0
		for i := 0; i < m; i++ {
			rep := 1
			for d := 0; d < m-1; d++ {
				if d == i-1 || d == i {
					continue
				}
				rep *= sh[d]
			}
			total += sizes[i] * float64(rep)
		}
		return total
	}
	for {
		bestDim, bestComm := -1, comm(shares)
		for d := range shares {
			trial := append([]int(nil), shares...)
			trial[d] *= 2
			prod := 1
			for _, s := range trial {
				prod *= s
			}
			if prod > kr {
				continue
			}
			// Doubling a share halves nothing by itself but the extra
			// parallelism divides reducer load; prefer moves that do
			// not increase communication per unit of added parallelism.
			c := comm(trial) / 2 // normalised by the doubled parallelism
			if c < bestComm {
				bestComm, bestDim = c, d
			}
		}
		if bestDim < 0 {
			break
		}
		shares[bestDim] *= 2
	}
	return shares
}

func concatAll(rels []*relation.Relation) *relation.Schema {
	var cols []relation.Column
	for _, r := range rels {
		for i := 0; i < r.Schema.Len(); i++ {
			c := r.Schema.Column(i)
			cols = append(cols, relation.Column{Name: r.Name + "." + c.Name, Kind: c.Kind})
		}
	}
	return relation.MustSchema(cols...)
}
