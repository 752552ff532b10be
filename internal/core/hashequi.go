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
// heavy-hitter handling: for each hot join-key value in the plan, the
// left side's tuples split across a Rows sub-grid of reducers by
// content hash and the right side replicates across it (and
// symmetrically with Cols when the right side is hot), per SharesSkew. Reducer-side logic is
// unchanged — each sub-reducer joins its fragment against the
// replicated side, and fragments are disjoint, so the output is the
// same set of tuples with the hot key's work spread evenly. Splits come
// from the plan's reports over each side's key columns, hashed with
// the same composite key the map side shuffles on. A nil plan means no
// hot-key handling.
func BuildHashEquiJob(name string, left, right *relation.Relation, conds predicate.Conjunction, kr int, plan *skew.JobPlan) (*mr.Job, error) {
	if !AllEquiSamePair(conds) {
		return nil, fmt.Errorf("core: conditions %s are not a two-relation equi conjunction", conds)
	}
	// Orient every condition left→right.
	type keyCol struct {
		col int
		off float64
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
		lCols = append(lCols, keyCol{lc, oc.LeftOffset})
		rCols = append(rCols, keyCol{rc, oc.RightOffset})
		// Interned shuffle keys: when both sides of a condition share
		// the same dictionary (self-join aliases do), the 8-byte code
		// replaces the string bytes in the composite hash. Distinct
		// dictionaries assign unrelated codes to equal strings, so the
		// fast path is gated on pointer identity.
		lD, rD := left.DictOf(lc), right.DictOf(rc)
		codeKeys = append(codeKeys, lD != nil && lD == rD)
		oriented = append(oriented, oc)
	}
	// Map-side hashKey and the hot-key groupKey must agree byte for
	// byte, so both fold their columns through foldKeyPart.
	hashKey := func(t relation.Tuple, cols []keyCol) uint64 {
		h := uint64(fnvOffset64)
		for i, kc := range cols {
			h = foldKeyPart(h, t[kc.col].Add(kc.off), codeKeys[i])
		}
		return h
	}
	var partitioner mr.Partitioner
	if plan != nil {
		// A hot value combination's shuffle key: the same composite
		// hash the map side emits (hashKey over the condition-ordered
		// columns with their offsets applied).
		groupKey := func(vals []relation.Value, leftSide bool) uint64 {
			cols := rCols
			if leftSide {
				cols = lCols
			}
			h := uint64(fnvOffset64)
			for i, kc := range cols {
				h = foldKeyPart(h, vals[i].Add(kc.off), codeKeys[i])
			}
			return h
		}
		if splits := equiSplits(plan, left.Name, right.Name, oriented, kr, groupKey); len(splits) > 0 {
			partitioner = &skew.EquiPartitioner{Splits: splits}
		}
	}
	rels := []*relation.Relation{left, right}
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
			{Rel: left, Map: func(t relation.Tuple, emit mr.Emitter) { emit(hashKey(t, lCols), 0, t) }},
			{Rel: right, Map: func(t relation.Tuple, emit mr.Emitter) { emit(hashKey(t, rCols), 1, t) }},
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

// FNV-1a, 64 bit, as hash/fnv computes it.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// foldKeyPart folds one key column's contribution into the composite
// FNV-1a shuffle key h: the eight little-endian bytes of the dictionary
// code when the shared-dictionary fast path applies (code) and the value
// is interned, the bytes of its textual form otherwise, and a 0x1f
// separator. It runs once per key column of every mapped tuple, so it
// allocates nothing: numbers are rendered into a stack buffer.
func foldKeyPart(h uint64, v relation.Value, code bool) uint64 {
	if c, ok := v.DictCode(); code && ok {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(c)>>(8*i)&0xff) * fnvPrime64
		}
	} else if v.Kind() == relation.KindString {
		for s, i := v.Str(), 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
	} else {
		var scratch [32]byte
		for _, b := range v.AppendString(scratch[:0]) {
			h = (h ^ uint64(b)) * fnvPrime64
		}
	}
	return (h ^ 0x1f) * fnvPrime64
}

// equiSplits turns the plan's hot join-key values into the sub-grid
// each one spreads over, keyed by the composite hash the map side
// shuffles on (keyOf, over one side's values in condition order): the
// planner stored each side's report under its condition-ordered column
// vector.
func equiSplits(plan *skew.JobPlan, left, right string, oriented []predicate.Condition, kr int, keyOf func(vals []relation.Value, leftSide bool) uint64) map[uint64]skew.Split {
	type frac2 struct{ l, r float64 }
	hot := make(map[uint64]frac2)
	lNames := make([]string, len(oriented))
	rNames := make([]string, len(oriented))
	for i, oc := range oriented {
		lNames[i] = oc.LeftColumn
		rNames[i] = oc.RightColumn
	}
	// raise records one side's fractions per hot key, keeping the larger
	// when two reported values hash to the same key.
	raise := func(rel string, cols []string, leftSide bool) {
		for _, hk := range plan.Hot(rel, cols) {
			if len(hk.Values) != len(oriented) {
				continue
			}
			k := keyOf(hk.Values, leftSide)
			f := hot[k]
			if leftSide {
				f.l = max(f.l, hk.Frac)
			} else {
				f.r = max(f.r, hk.Frac)
			}
			hot[k] = f
		}
	}
	raise(left, lNames, true)
	raise(right, rNames, false)
	splits := make(map[uint64]skew.Split)
	for k, f := range hot {
		sp := skew.Split{
			Rows: skew.SplitFactor(f.l, kr, plan.Threshold),
			Cols: skew.SplitFactor(f.r, kr, plan.Threshold),
		}
		// Shrink the larger axis until the sub-grid fits in kr.
		for sp.Cells() > kr {
			if sp.Rows >= sp.Cols && sp.Rows > 1 {
				sp.Rows--
			} else if sp.Cols > 1 {
				sp.Cols--
			} else {
				break
			}
		}
		if sp.Cells() > 1 && sp.Cells() <= kr {
			splits[k] = sp
		}
	}
	return splits
}
