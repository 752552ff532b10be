package relation

import (
	"fmt"
	"math/rand"
	"sort"
)

// Relation is an in-memory table: a named schema plus tuples.
//
// The simulator's "HDFS files" hold relations; map tasks iterate blocks
// of tuples. A Relation also records a VolumeMultiplier so experiments
// can model the paper's 20 GB–1 TB inputs with laptop-sized tuple
// counts: byte accounting multiplies real encoded sizes by the
// multiplier while the actual computation runs on the generated tuples.
type Relation struct {
	Name   string
	Schema *Schema
	Tuples []Tuple

	// VolumeMultiplier scales byte accounting (default 1). A relation
	// of 1,000 real tuples with multiplier 1,000 is charged like one
	// million tuples of I/O while joins still run on 1,000 rows.
	VolumeMultiplier float64

	// Dicts holds the per-column order-preserving string dictionaries
	// (nil entries for columns without one), aligned with the schema.
	// It lives here rather than in Schema.Column so Schema.Equal keeps
	// comparing columns by value. A column's dictionary covers every
	// string its tuples hold; join outputs inherit their input columns'
	// dictionaries by pointer (see InternStrings and mr.Job.OutputDicts).
	Dicts []*Dict
}

// DictOf returns the dictionary of column ci, or nil when the column
// has none (or ci is out of the Dicts slice).
func (r *Relation) DictOf(ci int) *Dict {
	if ci < 0 || ci >= len(r.Dicts) {
		return nil
	}
	return r.Dicts[ci]
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema, VolumeMultiplier: 1}
}

// Append adds a tuple after validating its arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), r.Schema.Len())
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append that panics on arity mismatch (generator code).
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// EncodedSize returns the raw byte size of all tuples (without the
// volume multiplier).
func (r *Relation) EncodedSize() int64 {
	var n int64
	for _, t := range r.Tuples {
		n += int64(t.EncodedSize())
	}
	return n
}

// ModeledSize returns the byte size charged by the cost model:
// EncodedSize × VolumeMultiplier.
func (r *Relation) ModeledSize() int64 {
	m := r.VolumeMultiplier
	if m <= 0 {
		m = 1
	}
	return int64(float64(r.EncodedSize()) * m)
}

// AvgTupleSize returns the mean encoded tuple size in bytes (0 for an
// empty relation).
func (r *Relation) AvgTupleSize() float64 {
	if len(r.Tuples) == 0 {
		return 0
	}
	return float64(r.EncodedSize()) / float64(len(r.Tuples))
}

// Clone returns a copy sharing tuples (tuples are treated as
// immutable) and dictionaries (immutable once built).
func (r *Relation) Clone() *Relation {
	c := *r
	c.Tuples = append([]Tuple(nil), r.Tuples...)
	c.Dicts = append([]*Dict(nil), r.Dicts...)
	return &c
}

// Sample draws k tuples by reservoir sampling with the given rng,
// returning fewer if the relation is smaller. The relation order is
// untouched.
func (r *Relation) Sample(k int, rng *rand.Rand) []Tuple {
	if k <= 0 {
		return nil
	}
	if len(r.Tuples) <= k {
		return append([]Tuple(nil), r.Tuples...)
	}
	out := make([]Tuple, k)
	copy(out, r.Tuples[:k])
	for i := k; i < len(r.Tuples); i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = r.Tuples[i]
		}
	}
	return out
}

// Blocks splits the relation into blocks of at most blockTuples tuples,
// modelling HDFS block splits for map tasks. blockTuples <= 0 yields a
// single block.
func (r *Relation) Blocks(blockTuples int) [][]Tuple {
	if blockTuples <= 0 || len(r.Tuples) == 0 {
		if len(r.Tuples) == 0 {
			return nil
		}
		return [][]Tuple{r.Tuples}
	}
	var blocks [][]Tuple
	for i := 0; i < len(r.Tuples); i += blockTuples {
		end := i + blockTuples
		if end > len(r.Tuples) {
			end = len(r.Tuples)
		}
		blocks = append(blocks, r.Tuples[i:end])
	}
	return blocks
}

// ResultSet is a deduplicating bag of tuples used to compare join
// outputs across planners in tests and to merge job outputs.
type ResultSet struct {
	counts map[string]int
	size   int
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet {
	return &ResultSet{counts: make(map[string]int)}
}

// Add inserts a tuple occurrence.
func (rs *ResultSet) Add(t Tuple) {
	rs.counts[t.Key()]++
	rs.size++
}

// AddAll inserts every tuple of a slice.
func (rs *ResultSet) AddAll(ts []Tuple) {
	for _, t := range ts {
		rs.Add(t)
	}
}

// Len returns the total number of tuple occurrences.
func (rs *ResultSet) Len() int { return rs.size }

// Distinct returns the number of distinct tuples.
func (rs *ResultSet) Distinct() int { return len(rs.counts) }

// Equal reports whether two result sets hold the same multiset of tuples.
func (rs *ResultSet) Equal(o *ResultSet) bool {
	if rs.size != o.size || len(rs.counts) != len(o.counts) {
		return false
	}
	for k, c := range rs.counts {
		if o.counts[k] != c {
			return false
		}
	}
	return true
}

// Diff returns up to max keys present with different multiplicity,
// formatted for test failure messages.
func (rs *ResultSet) Diff(o *ResultSet, max int) []string {
	var diffs []string
	for k, c := range rs.counts {
		if o.counts[k] != c {
			diffs = append(diffs, fmt.Sprintf("key %q: %d vs %d", k, c, o.counts[k]))
			if len(diffs) >= max {
				return diffs
			}
		}
	}
	for k, c := range o.counts {
		if _, ok := rs.counts[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("key %q: 0 vs %d", k, c))
			if len(diffs) >= max {
				return diffs
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
