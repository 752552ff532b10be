package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/skew"
)

// BuildHashEquiJob constructs the classic repartition equi-join for a
// conjunction of equalities between exactly two relations: each tuple
// shuffles once, on the join keys of its side of the conditions
// (shuffleKey), so a matching pair meets on one key, and the reducer
// compares those same keys. A non-nil plan adds heavy-hitter handling
// per SharesSkew: each hot join-key value gets a skew.Run of reducers
// placed by skew.Overlay, whose left axis splits the left side's
// tuples by content hash while the right side replicates across it
// (and symmetrically when the right side is hot). Reducer-side logic
// is unchanged — each sub-reducer joins its fragment against the
// replicated side, and fragments are disjoint, so the output is the
// same set of tuples with the hot key's work spread evenly. Runs come
// from the plan's reports over each side's key columns, keyed by the
// same extractors the map side shuffles by. A nil plan means no
// hot-key handling.
func BuildHashEquiJob(name string, left, right *relation.Relation, conds predicate.Conjunction, kr int, plan *skew.JobPlan) (*mr.Job, error) {
	if !AllEquiSamePair(conds) {
		return nil, fmt.Errorf("core: conditions %s are not a two-relation equi conjunction", conds)
	}
	// Orient every condition left→right.
	oriented := make(predicate.Conjunction, len(conds))
	for i, c := range conds {
		if c.Left != left.Name {
			c = c.Reversed()
		}
		oriented[i] = c
	}
	rels := []*relation.Relation{left, right}
	bound, err := bindConditions(oriented, rels)
	if err != nil {
		return nil, err
	}
	// Within a reduce group the equality conditions probe a per-group
	// hash index on the same keys, which also separates the key values
	// a shuffle-key collision mixes.
	je := newJoinEval(rels, bound)
	sides := je.equiSides()
	var partitioner mr.Partitioner
	if plan != nil {
		// The planner stored each side's report under its
		// condition-ordered column vector. Member 0 is the left side.
		var hots []skew.Hot
		for side, exts := range sides {
			names := make([]string, len(oriented))
			for i, c := range oriented {
				names[i] = [2]string{c.LeftColumn, c.RightColumn}[side]
			}
			for _, hk := range plan.Hot(rels[side].Name, names) {
				if len(hk.Values) != len(exts) {
					continue
				}
				h := relation.NewFNV()
				for i := range exts {
					h = h.U64(uint64(exts[i].valueKey(hk.Values[i])))
				}
				fracs := make([]float64, 2)
				fracs[side] = hk.Frac
				hots = append(hots, skew.Hot{Key: mix(h), Fracs: fracs})
			}
		}
		partitioner = skew.Overlay(kr, hots, plan.Threshold)
	}
	return &mr.Job{
		Name: name,
		Inputs: []mr.Input{
			{Rel: left, Map: func(t relation.Tuple, emit mr.Emitter) { emit(shuffleKey(sides[0], t)) }},
			{Rel: right, Map: func(t relation.Tuple, emit mr.Emitter) { emit(shuffleKey(sides[1], t)) }},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ls, rs := groups[0], groups[1]
			if len(ls) == 0 || len(rs) == 0 {
				return
			}
			ge := je.newGroupEval(groups)
			defer je.release(ge)
			ge.run(ctx, func(sel []int32) {
				ctx.EmitConcat(ls[sel[0]], rs[sel[1]])
			})
		},
		NumReducers:  kr,
		Partitioner:  partitioner,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}, nil
}
