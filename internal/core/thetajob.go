package core

import (
	"fmt"
	"hash/fnv"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// BuildThetaJob constructs the Algorithm 1 MapReduce job: every tuple
// is routed to the components its cell coordinate touches; reducers
// backtrack over the per-relation groups, verify the conditions, and
// emit exactly the combinations whose hyper-cube cell falls inside
// their own component.
func BuildThetaJob(name string, rels []*relation.Relation, conds predicate.Conjunction, kr int) (*mr.Job, error) {
	if len(rels) < 2 {
		return nil, fmt.Errorf("core: theta job needs >= 2 relations")
	}
	cards := make([]int, len(rels))
	ridIdx := make([]int, len(rels))
	for i, r := range rels {
		if r.Cardinality() == 0 {
			// An empty input empties the join; return a trivial job.
			return emptyJob(name, rels, kr), nil
		}
		cards[i] = r.Cardinality()
		ri, err := ridOrdinal(r)
		if err != nil {
			return nil, err
		}
		ridIdx[i] = ri
	}
	part, err := NewPartitioner(cards, kr, maxCubeCells)
	if err != nil {
		return nil, err
	}
	bound, err := bindConditions(conds, rels)
	if err != nil {
		return nil, err
	}
	salt := jobSalt(name)

	inputs := make([]mr.Input, len(rels))
	for i := range rels {
		dim := i
		rid := ridIdx[i]
		card := cards[i]
		inputs[i] = mr.Input{
			Rel: rels[i],
			Map: func(t relation.Tuple, emit mr.Emitter) {
				id := tupleGlobalID(t[rid], card, salt, dim)
				for _, comp := range part.ComponentsOf(dim, id) {
					emit(uint64(comp))
				}
			},
		}
	}
	reduce := makeThetaReducer(rels, bound, part, ridIdx, cards, salt)
	return &mr.Job{
		Name:         name,
		Inputs:       inputs,
		Reduce:       reduce,
		NumReducers:  kr,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}, nil
}

// jobSalt derives the ID-randomisation salt from the job name.
func jobSalt(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// tupleGlobalID implements Algorithm 1's "GlobalID ← unified random
// selection": a salted hash of the row ID, uniform over [0, card) and
// identical in map and reduce phases. The hash is FNV-1a over ten
// bytes — the rid's eight little-endian bytes, then the low bytes of
// salt and dim — folded inline: it runs for every routed tuple, and
// hash/fnv's interface value cost more than the arithmetic.
func tupleGlobalID(rid relation.Value, card int, salt uint64, dim int) uint64 {
	if card <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	v := uint64(rid.Int64())
	for i := 0; i < 8; i++ {
		h = (h ^ v>>(8*i)&0xff) * fnvPrime64
	}
	h = (h ^ salt&0xff) * fnvPrime64
	h = (h ^ uint64(dim)&0xff) * fnvPrime64
	x := h ^ (salt * 0x9e3779b97f4a7c15)
	return x % uint64(card)
}

// makeThetaReducer compiles the backtracking join executed inside each
// component. Condition evaluation is delegated to the shared indexed
// evaluator (joineval.go): per reduce group, extension steps probe
// hash indexes on equality conditions and intersected sorted-run
// ranges on inequality conditions, comparing normalized int64 sort
// keys instead of boxed values. The final membership check (does the
// combination's cell belong to this component?) guarantees each result
// is emitted by exactly one reducer. It needs each selected tuple's
// cell coordinate, which costs a hash of its rid: the reducer computes
// one the first time a match selects its tuple and keeps it, so a
// tuple no match selects is never hashed.
func makeThetaReducer(rels []*relation.Relation, bound []boundCond, part *Partitioner, ridIdx, cards []int, salt uint64) mr.ReduceFunc {
	m := len(rels)
	je := newJoinEval(rels, bound)
	return func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
		comp := int32(key)
		total := 0
		for _, g := range groups {
			if len(g) == 0 {
				return // some dimension absent: no combination possible
			}
			total += len(g)
		}
		// Cell coordinates plus one, 0 until first needed: one exactly
		// sized array cut per dimension, then the ownership check's two
		// scratch vectors.
		flat := make([]uint32, total+2*m)
		coords := make([][]uint32, m)
		for dim, g := range groups {
			coords[dim], flat = flat[:len(g):len(g)], flat[len(g):]
		}
		axes, hbuf := flat[:m], flat[m:]
		parts := make([]relation.Tuple, m)
		ge := je.newGroupEval(groups)
		ge.run(ctx, func(sel []int32) {
			// Ownership check: emit only when this component owns the
			// combination's cell.
			for i := 0; i < m; i++ {
				c := &coords[i][sel[i]]
				if *c == 0 {
					id := tupleGlobalID(groups[i][sel[i]][ridIdx[i]], cards[i], salt, i)
					*c = part.CellCoord(i, id) + 1
				}
				axes[i] = *c - 1
			}
			if part.componentOfAxes(axes, hbuf) != comp {
				return
			}
			for i := 0; i < m; i++ {
				parts[i] = groups[i][sel[i]]
			}
			ctx.EmitConcat(parts...)
		})
	}
}
