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
// identical in map and reduce phases.
func tupleGlobalID(rid relation.Value, card int, salt uint64, dim int) uint64 {
	if card <= 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [10]byte
	v := uint64(rid.Int64())
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	buf[8] = byte(salt)
	buf[9] = byte(dim)
	h.Write(buf[:])
	x := h.Sum64() ^ (salt * 0x9e3779b97f4a7c15)
	return x % uint64(card)
}

// makeThetaReducer compiles the backtracking join executed inside each
// component. Condition evaluation is delegated to the shared indexed
// evaluator (joineval.go): per reduce group, extension steps probe
// hash indexes on equality conditions and intersected sorted-run
// ranges on inequality conditions, comparing normalized int64 sort
// keys instead of boxed values. The final membership check (does the
// combination's cell belong to this component?) guarantees each result
// is emitted by exactly one reducer.
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
		// Cell coordinates of every tuple, one exactly sized array cut
		// per dimension, then the ownership check's two scratch vectors.
		flat := make([]uint32, total+2*m)
		coords := make([][]uint32, m)
		for dim, g := range groups {
			coords[dim], flat = flat[:len(g):len(g)], flat[len(g):]
			for i, t := range g {
				id := tupleGlobalID(t[ridIdx[dim]], cards[dim], salt, dim)
				coords[dim][i] = part.CellCoord(dim, id)
			}
		}
		axes, hbuf := flat[:m], flat[m:]
		parts := make([]relation.Tuple, m)
		ge := je.newGroupEval(groups)
		ge.run(ctx, func(sel []int32) {
			// Ownership check: emit only when this component owns the
			// combination's cell.
			for i := 0; i < m; i++ {
				axes[i] = coords[i][sel[i]]
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
