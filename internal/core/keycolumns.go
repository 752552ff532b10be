package core

import (
	"repro/internal/predicate"
	"repro/internal/relation"
)

// Join keys: what every job routes and compares by.
//
// Each compiled condition side is a keyExtractor: the recipe deriving
// one tuple's normalized int64 join key. Those keys are what a reducer
// compares, and — folded by shuffleKey — what the map side routes by,
// so two tuples that satisfy an equality as join keys meet in one
// reducer however their values print (int 1000000 and float 1e6, int
// 2^53+1 and float 2^53, one string under two dictionaries). The
// hash-equi job and the baselines' cascade steps shuffle on the keys
// of their equality conditions; the share grid keys each dimension's
// whole equality class in one mode (gridDim).
//
// The reducer side caches keys as struct-of-arrays columns: at compile
// time (newJoinEval) every step deduplicates its candidate-side
// extractors into slots, so two conditions reading the same column
// with the same offset and mode share one extraction; at group-build
// time (groupEval.buildStep) the step's slots are materialised once
// into contiguous []int64 columns cut from one backing array, reused
// from group to group. Probe loops and binary searches then read
// sequential memory instead of re-deriving keys from boxed tuples. The
// cache is shared by the theta, share-grid and hash-equi reducers,
// which all evaluate through joineval.go.

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
func (e *keyExtractor) key(t relation.Tuple) int64 { return e.valueKey(t[e.col]) }

// valueKey is key of a tuple whose column holds v: how a hot value a
// skew report names gets the key its tuples route by.
func (e *keyExtractor) valueKey(v relation.Value) int64 {
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

// shuffleKey is the key a tuple of one side of an equi-join shuffles
// by: the FNV-1a fold of its join keys under exts, one per equality
// condition in condition order, finished by mix. The other side's
// extractors of the same conditions give a matching tuple the same
// key. It runs once per mapped tuple, so it allocates nothing.
func shuffleKey(exts []keyExtractor, t relation.Tuple) uint64 {
	h := relation.NewFNV()
	for i := range exts {
		h = h.U64(uint64(exts[i].key(t)))
	}
	return mix(h)
}

// mix finishes a fold of join keys with splitmix64's finalizer. A
// reducer is key % k, and an FNV-1a hash's low bits depend only on the
// low bits of the bytes it folded; the avalanche makes every bit of
// the key depend on every bit of every join key.
func mix(h relation.FNV) uint64 {
	x := uint64(h)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
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
