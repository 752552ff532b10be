package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/skew"
)

// BuildHashEquiJob constructs the classic repartition equi-join for a
// conjunction of equalities between exactly two relations: tuples hash
// on the composite key, no duplication. A non-nil plan adds
// heavy-hitter handling per SharesSkew: each hot join-key value gets a
// skew.Run of reducers placed by skew.Overlay, whose left axis splits
// the left side's tuples by content hash while the right side
// replicates across it (and symmetrically when the right side is hot).
// Reducer-side logic is unchanged — each sub-reducer joins its
// fragment against the replicated side, and fragments are disjoint, so
// the output is the same set of tuples with the hot key's work spread
// evenly. Runs come from the plan's reports over each side's key
// columns, keyed by the same composite hash the map side shuffles on.
// A nil plan means no hot-key handling.
func BuildHashEquiJob(name string, left, right *relation.Relation, conds predicate.Conjunction, kr int, plan *skew.JobPlan) (*mr.Job, error) {
	if !AllEquiSamePair(conds) {
		return nil, fmt.Errorf("core: conditions %s are not a two-relation equi conjunction", conds)
	}
	// Orient every condition left→right.
	type keyCol struct {
		col  int
		off  float64
		name string
	}
	var lCols, rCols []keyCol
	var codeKeys []bool
	var oriented []predicate.Condition
	for _, c := range conds {
		oc := c
		if oc.Left != left.Name {
			oc = c.Reversed()
		}
		lc, ok := resolveColumn(left, oc.Left, oc.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("core: no column %s.%s", oc.Left, oc.LeftColumn)
		}
		rc, ok := resolveColumn(right, oc.Right, oc.RightColumn)
		if !ok {
			return nil, fmt.Errorf("core: no column %s.%s", oc.Right, oc.RightColumn)
		}
		lCols = append(lCols, keyCol{lc, oc.LeftOffset, oc.LeftColumn})
		rCols = append(rCols, keyCol{rc, oc.RightOffset, oc.RightColumn})
		// Interned shuffle keys: when both sides of a condition share
		// the same dictionary (self-join aliases do), the 8-byte code
		// replaces the string bytes in the composite hash. Distinct
		// dictionaries assign unrelated codes to equal strings, so the
		// fast path is gated on pointer identity.
		lD, rD := left.DictOf(lc), right.DictOf(rc)
		codeKeys = append(codeKeys, lD != nil && lD == rD)
		oriented = append(oriented, oc)
	}
	// Map-side hashKey and the hot values' keys must agree byte for
	// byte, so both fold their columns through foldKeyPart.
	hashKey := func(t relation.Tuple, cols []keyCol) uint64 {
		h := relation.NewFNV()
		for i, kc := range cols {
			h = foldKeyPart(h, t[kc.col].Add(kc.off), codeKeys[i])
		}
		return uint64(h)
	}
	rels := []*relation.Relation{left, right}
	var partitioner mr.Partitioner
	if plan != nil {
		// A hot value combination routes by the composite hash the map
		// side shuffles it on; the planner stored each side's report under
		// its condition-ordered column vector. Member 0 is the left side.
		var hots []skew.Hot
		for side, cols := range [][]keyCol{lCols, rCols} {
			names := make([]string, len(cols))
			for i, kc := range cols {
				names[i] = kc.name
			}
			for _, hk := range plan.Hot(rels[side].Name, names) {
				if len(hk.Values) != len(cols) {
					continue
				}
				h := relation.NewFNV()
				for i, kc := range cols {
					h = foldKeyPart(h, hk.Values[i].Add(kc.off), codeKeys[i])
				}
				fracs := make([]float64, 2)
				fracs[side] = hk.Frac
				hots = append(hots, skew.Hot{Key: uint64(h), Fracs: fracs})
			}
		}
		partitioner = skew.Overlay(kr, hots, plan.Threshold)
	}
	// Reducer-side verification through the shared indexed evaluator:
	// within a reduce group (one composite key hash) the equality
	// conditions compare normalized sort keys — or probe a per-group
	// hash index when hash collisions mix several key values — instead
	// of boxed Compare(Value.Add(...)) per (l, r) pair.
	bound, err := bindConditions(oriented, rels)
	if err != nil {
		return nil, err
	}
	je := newJoinEval(rels, bound)
	return &mr.Job{
		Name: name,
		Inputs: []mr.Input{
			{Rel: left, Map: func(t relation.Tuple, emit mr.Emitter) { emit(hashKey(t, lCols)) }},
			{Rel: right, Map: func(t relation.Tuple, emit mr.Emitter) { emit(hashKey(t, rCols)) }},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ls, rs := groups[0], groups[1]
			if len(ls) == 0 || len(rs) == 0 {
				return
			}
			// Tiny groups (the common case when keys are near-unique)
			// verify pair-by-pair on normalized keys with zero group
			// setup; larger groups get the per-group indexes.
			if len(ls)*len(rs) <= directPairVerify {
				ctx.AddWork(int64(len(ls)) * int64(len(rs)))
				for _, l := range ls {
					for _, r := range rs {
						if je.matchPair(l, r) {
							ctx.EmitConcat(l, r)
						}
					}
				}
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

// foldKeyPart folds one key column's contribution into the composite
// FNV-1a shuffle key h: the eight little-endian bytes of the dictionary
// code when the shared-dictionary fast path applies (code) and the value
// is interned, the bytes of its textual form otherwise, and a 0x1f
// separator. It runs once per key column of every mapped tuple, so it
// allocates nothing.
func foldKeyPart(h relation.FNV, v relation.Value, code bool) relation.FNV {
	if c, ok := v.DictCode(); code && ok {
		h = h.U64(uint64(c))
	} else {
		h = h.Text(v)
	}
	return h.Byte(0x1f)
}
