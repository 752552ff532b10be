package core

import (
	"repro/internal/predicate"
	"repro/internal/relation"
)

// Struct-of-arrays key cache for the reducer-side join evaluator.
//
// Each compiled condition side is a keyExtractor: the recipe deriving
// one tuple's normalized int64 sort key. At compile time (newJoinEval)
// every step deduplicates its candidate-side extractors into slots, so
// two conditions reading the same column with the same offset and mode
// share one extraction; at group-build time (groupEval.buildStep) the
// step's slots are materialised once into contiguous []int64 columns
// cut from one backing array, reused from group to group. Probe loops
// and binary searches then read sequential memory instead of
// re-deriving keys from boxed tuples. The cache is shared by the
// theta, share-grid and hash-equi reducers, which all evaluate through
// joineval.go.

// keyExtractor derives the normalized sort key of one condition side:
// column ordinal, additive offset and key mode, plus — in dictionary
// mode — the reference dictionary keys are computed against. direct
// marks the side whose values are interned against that exact
// dictionary: its keys come straight from the embedded codes
// (relation.CodeKey); the other side probes by string
// (Dict.ProbeKey), which also covers the rare un-interned value.
type keyExtractor struct {
	mode   predicate.KeyMode
	col    int
	off    float64
	dict   *relation.Dict
	direct bool
}

// key extracts the normalized sort key of t under this recipe.
func (e *keyExtractor) key(t relation.Tuple) int64 {
	v := t[e.col]
	switch e.mode {
	case predicate.KeyInt:
		return relation.SortKeyInt(v, e.off)
	case predicate.KeyFloat:
		return relation.SortKeyFloat(v, e.off)
	default: // predicate.KeyDict
		if v.IsNull() {
			return relation.NullSortKey
		}
		if e.direct {
			if c, ok := v.DictCode(); ok {
				return relation.CodeKey(c)
			}
		}
		return e.dict.ProbeKey(v.Str())
	}
}

// sameKey reports whether two extractors produce identical, mutually
// comparable keys for every tuple.
func (e *keyExtractor) sameKey(o *keyExtractor) bool {
	return e.mode == o.mode && e.col == o.col && e.off == o.off && e.dict == o.dict
}

// keyColumns is a step's materialised key cache: one column per
// extractor slot, all cut from one contiguous backing array that the
// step index keeps for its next group.
type keyColumns struct {
	flat []int64
	cols [][]int64
}

// build materialises every extractor's keys over the candidate list and
// returns the columns, valid until the next build.
func (kc *keyColumns) build(exts []keyExtractor, cands []relation.Tuple) [][]int64 {
	n := len(cands)
	kc.flat = sized(kc.flat, len(exts)*n)
	kc.cols = sized(kc.cols, len(exts))
	for x := range exts {
		col := kc.flat[x*n : (x+1)*n : (x+1)*n]
		e := &exts[x]
		for i, t := range cands {
			col[i] = e.key(t)
		}
		kc.cols[x] = col
	}
	return kc.cols
}
