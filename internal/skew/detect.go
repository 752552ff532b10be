package skew

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/relation"
)

// Detection constants.
const (
	// MaxKeys bounds the heavy hitters retained per report.
	MaxKeys = 8
	// MinFrac is the smallest estimated tuple fraction reported: values
	// below it cannot overload a reducer at any realistic parallelism.
	MinFrac = 0.05
	// ExactThreshold: relations with at most this many tuples are
	// counted in full instead of from the retained sample.
	ExactThreshold = 4096
)

// appendCountKey appends the bytes heavy-hitter counting buckets v
// under. Interned strings (relation.InternedStr) count by their
// fixed-width dictionary code instead of the full string bytes: within
// one column every value shares the same dictionary, so the code is a
// unique and allocation-free stand-in. The 0x02 tag byte keeps code
// keys disjoint from the textual keys of un-interned values in other
// columns of the set (a raw string starting with 0x02 would need the
// identical 9-byte layout to collide, and per column the
// representation is uniform anyway).
func appendCountKey(kb []byte, v relation.Value) []byte {
	if c, ok := v.DictCode(); ok {
		kb = append(kb, 0x02)
		return binary.LittleEndian.AppendUint64(kb, uint64(c))
	}
	return v.AppendString(kb)
}

// AnnotateCatalog fills the HotKeys report of every table in the
// catalog for which a relation is supplied (matched by name). Tables
// without a matching relation are detected from their retained sample
// rows alone.
func AnnotateCatalog(cat *relation.Catalog, rels []*relation.Relation) {
	byName := make(map[string]*relation.Relation, len(rels))
	for _, r := range rels {
		if r != nil {
			byName[r.Name] = r
		}
	}
	for name, ts := range cat.Tables {
		AnnotateTable(ts, byName[name])
	}
}

// AnnotateTable computes ts.HotKeys, the catalog's cache of
// single-column reports: HotKeys over each column as a set of one.
func AnnotateTable(ts *relation.TableStats, r *relation.Relation) {
	ts.HotKeys = make(map[string][]relation.HotKey, len(ts.ColumnOrder()))
	for _, col := range ts.ColumnOrder() {
		hot := HotKeys(ts, r, []string{col})
		if hot == nil {
			// Non-nil marks "measured, found uniform" — distinct from a
			// table that was never analyzed, whose map is nil.
			hot = []relation.HotKey{}
		}
		ts.HotKeys[col] = hot
	}
}

// Report returns the heavy hitters of ts over cols: the catalog's
// cached report for one column, a detection over the retained sample
// for any larger set.
func Report(ts *relation.TableStats, cols []string) []relation.HotKey {
	if len(cols) == 1 {
		return ts.HotKeys[cols[0]]
	}
	return HotKeys(ts, nil, cols)
}

// HotKeys detects the heavy hitters of ts over the named columns: the
// value combinations estimated to carry at least MinFrac of the
// relation's tuples, at most MaxKeys of them, ordered by estimated
// count descending. Per SharesSkew, what overloads a reducer is a hot
// value COMBINATION; a single hot value is the one-column instance,
// and per-column reports cannot stand in for a larger set — two
// individually near-uniform columns can still share one dominant pair
// that overloads the reducer hashing their composite key.
//
// When r is non-nil with at most ExactThreshold tuples, the whole
// relation is counted; otherwise the seeded sample rows are, exactly,
// and each count scales to the relation's cardinality (unless the
// sample already holds the whole relation). The report is therefore
// deterministic across runs either way. A row with a NULL in any of
// the columns carries no key.
// Unknown column names and an empty set yield nil.
func HotKeys(ts *relation.TableStats, r *relation.Relation, cols []string) []relation.HotKey {
	if ts == nil || len(cols) == 0 {
		return nil
	}
	ords := make([]int, len(cols))
	for i, name := range cols {
		ords[i] = -1
		for j, n := range ts.ColumnOrder() {
			if n == name {
				ords[i] = j
				break
			}
		}
		if ords[i] < 0 {
			return nil
		}
	}
	rows, exact := ts.SampleRows, len(ts.SampleRows) == ts.Cardinality
	if r != nil && r.Cardinality() <= ExactThreshold {
		rows, exact = r.Tuples, true
	}
	if len(rows) == 0 || ts.Cardinality <= 0 {
		return nil
	}
	// seen is one distinct key: its interned bytes, the first row
	// carrying it and its count. Indexing with string(kb) allocates
	// only on a key's first occurrence; every later row reuses the
	// interned string.
	type seen struct {
		key string
		row int32
		n   int64
	}
	index := make(map[string]int32)
	var keys []seen
	var kb []byte
rows:
	for ri, t := range rows {
		kb = kb[:0]
		for _, ci := range ords {
			if ci >= len(t) || t[ci].IsNull() {
				continue rows
			}
			kb = append(appendCountKey(kb, t[ci]), 0x1f)
		}
		i, ok := index[string(kb)]
		if !ok {
			i = int32(len(keys))
			keys = append(keys, seen{key: string(kb), row: int32(ri)})
			index[keys[i].key] = i
		}
		keys[i].n++
	}
	n := float64(len(rows))
	var hot []relation.HotKey
	for _, s := range keys {
		c := s.n
		frac := float64(c) / n
		if frac < MinFrac || c < 2 {
			continue
		}
		if !exact {
			c = int64(math.Round(frac * float64(ts.Cardinality)))
		}
		vs := make([]relation.Value, len(ords))
		for i, ci := range ords {
			vs[i] = rows[s.row][ci]
		}
		hot = append(hot, relation.HotKey{Values: vs, Count: c, Frac: frac})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Count != hot[j].Count {
			return hot[i].Count > hot[j].Count
		}
		return valuesKey(hot[i].Values) < valuesKey(hot[j].Values)
	})
	if len(hot) > MaxKeys {
		hot = hot[:MaxKeys]
	}
	return hot
}

// valuesKey is the canonical tie-break string of a value vector.
func valuesKey(vs []relation.Value) string {
	var b []byte
	for _, v := range vs {
		b = append(v.AppendString(b), 0x1f)
	}
	return string(b)
}
