package relation

import (
	"fmt"
	"math"
	"math/rand"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// ColumnStats summarises one attribute: min/max, an approximate
// distinct count, and an equi-width histogram. The optimizer uses these
// to estimate theta-condition selectivities without scanning full
// relations (the paper builds them during data upload, §6.3).
type ColumnStats struct {
	Name     string
	Kind     Kind
	Count    int
	NullCnt  int
	Min      Value
	Max      Value
	Distinct int // estimated via sample distinct scaling

	// Dict references the column's order-preserving string dictionary
	// when the relation was interned before analysis (see InternStrings);
	// nil for numeric columns and un-interned string columns.
	Dict *Dict

	// Histogram over [histMin, histMax] with equal-width buckets.
	// Only populated for numeric kinds.
	HistMin     float64
	HistMax     float64
	BucketCount []int
}

// DefaultHistogramBuckets is the bucket count used by Analyze.
const DefaultHistogramBuckets = 32

// Selectivity of v-range queries is linear-interpolated inside buckets.

// FracLess estimates P[x < v] from the histogram (numeric columns).
func (cs *ColumnStats) FracLess(v float64) float64 {
	if cs.Count == 0 || len(cs.BucketCount) == 0 {
		return 0.5
	}
	if v <= cs.HistMin {
		return 0
	}
	if v >= cs.HistMax {
		return 1
	}
	width := (cs.HistMax - cs.HistMin) / float64(len(cs.BucketCount))
	if width <= 0 {
		return 0.5
	}
	pos := (v - cs.HistMin) / width
	full := int(pos)
	frac := pos - float64(full)
	total := 0
	for _, c := range cs.BucketCount {
		total += c
	}
	if total == 0 {
		return 0.5
	}
	acc := 0
	for i := 0; i < full && i < len(cs.BucketCount); i++ {
		acc += cs.BucketCount[i]
	}
	est := float64(acc)
	if full < len(cs.BucketCount) {
		est += frac * float64(cs.BucketCount[full])
	}
	return est / float64(total)
}

// HotKey is one detected heavy hitter of a column: a value estimated
// to carry at least a minimum share of the relation's tuples. The
// skew subsystem (internal/skew) computes these from the statistics
// sample — or exactly, for small relations — and the planner and
// partitioners consume them to split hot keys across reducers.
type HotKey struct {
	Value Value
	Count int64   // estimated occurrences in the full relation
	Frac  float64 // estimated fraction of tuples carrying Value
}

// TableStats bundles per-column statistics with cardinality and size
// information for one relation.
type TableStats struct {
	Relation    string
	Cardinality int
	AvgTuple    float64
	ModeledSize int64
	Columns     map[string]*ColumnStats
	SampleRows  []Tuple

	// HotKeys holds the per-column heavy-hitter report, ordered by
	// estimated count descending. A nil map means detection never ran;
	// an empty slice for a column means it was measured near-uniform.
	HotKeys map[string][]HotKey

	colOrder []string
}

// ColumnOrder returns column names in schema order, matching the value
// order inside SampleRows tuples.
func (ts *TableStats) ColumnOrder() []string { return ts.colOrder }

// Analyze scans (a sample of) the relation and produces TableStats.
// sampleSize bounds both histogram construction and the retained sample
// rows used for pairwise selectivity estimation; <=0 means a default
// of 1000.
//
// A nil rng defaults to rand.New(rand.NewSource(1)): sampling — which
// also feeds heavy-hitter detection (internal/skew) — is then
// deterministic, so repeated analyses of the same relation produce
// identical statistics, hot-key reports and, downstream, identical
// plans. Callers wanting sampling variety must pass their own seeded
// rng (core.NewDB threads an explicit seed through here).
func Analyze(r *Relation, sampleSize int, rng *rand.Rand) *TableStats {
	if sampleSize <= 0 {
		sampleSize = 1000
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	sample := r.Sample(sampleSize, rng)
	ts := &TableStats{
		Relation:    r.Name,
		Cardinality: r.Cardinality(),
		AvgTuple:    r.AvgTupleSize(),
		ModeledSize: r.ModeledSize(),
		Columns:     make(map[string]*ColumnStats, r.Schema.Len()),
		SampleRows:  sample,
	}
	for ci := 0; ci < r.Schema.Len(); ci++ {
		ts.colOrder = append(ts.colOrder, r.Schema.Column(ci).Name)
	}
	for ci := 0; ci < r.Schema.Len(); ci++ {
		col := r.Schema.Column(ci)
		cs := &ColumnStats{Name: col.Name, Kind: col.Kind, Dict: r.DictOf(ci)}
		distinct := make(map[string]struct{})
		var minV, maxV Value
		first := true
		var lo, hi float64
		numeric := col.Kind == KindInt || col.Kind == KindFloat || col.Kind == KindTime
		for _, t := range sample {
			v := t[ci]
			cs.Count++
			if v.IsNull() {
				cs.NullCnt++
				continue
			}
			distinct[v.String()] = struct{}{}
			if first {
				minV, maxV = v, v
				if numeric {
					lo, hi = v.Float64(), v.Float64()
				}
				first = false
				continue
			}
			if Compare(v, minV) < 0 {
				minV = v
			}
			if Compare(v, maxV) > 0 {
				maxV = v
			}
			if numeric {
				f := v.Float64()
				if f < lo {
					lo = f
				}
				if f > hi {
					hi = f
				}
			}
		}
		cs.Min, cs.Max = minV, maxV
		// Scale sample distinct count to the full relation assuming the
		// sample is uniform; capped by cardinality.
		if len(sample) > 0 {
			scaled := int(float64(len(distinct)) * float64(r.Cardinality()) / float64(len(sample)))
			if len(distinct) == len(sample) {
				scaled = r.Cardinality() // likely unique
			}
			if scaled > r.Cardinality() {
				scaled = r.Cardinality()
			}
			if scaled < len(distinct) {
				scaled = len(distinct)
			}
			cs.Distinct = scaled
		}
		if numeric && !first {
			cs.HistMin, cs.HistMax = lo, hi
			cs.BucketCount = make([]int, DefaultHistogramBuckets)
			width := (hi - lo) / float64(DefaultHistogramBuckets)
			for _, t := range sample {
				v := t[ci]
				if v.IsNull() {
					continue
				}
				b := 0
				if width > 0 {
					b = int((v.Float64() - lo) / width)
					if b >= DefaultHistogramBuckets {
						b = DefaultHistogramBuckets - 1
					}
					if b < 0 {
						b = 0
					}
				}
				cs.BucketCount[b]++
			}
		}
		ts.Columns[col.Name] = cs
	}
	return ts
}

// Catalog maps relation names to their statistics, forming the
// optimizer's view of the database.
type Catalog struct {
	Tables map[string]*TableStats
}

// NewCatalog analyzes every relation with the given sample size. The
// rng is shared across relations in slice order; nil falls back to
// Analyze's seeded default per relation (see Analyze for the
// determinism contract).
func NewCatalog(rels []*Relation, sampleSize int, rng *rand.Rand) *Catalog {
	c := &Catalog{Tables: make(map[string]*TableStats, len(rels))}
	for _, r := range rels {
		c.Tables[r.Name] = Analyze(r, sampleSize, rng)
	}
	return c
}

// WithOverlay returns a catalog view layering extra tables — e.g.
// statistics measured from produced intermediates at runtime — over
// this catalog. The receiver is not mutated; overlay entries shadow
// base entries of the same name.
func (c *Catalog) WithOverlay(extra map[string]*TableStats) *Catalog {
	merged := make(map[string]*TableStats, len(c.Tables)+len(extra))
	for k, v := range c.Tables {
		merged[k] = v
	}
	for k, v := range extra {
		merged[k] = v
	}
	return &Catalog{Tables: merged}
}

// Stats returns statistics for a relation name.
func (c *Catalog) Stats(name string) (*TableStats, error) {
	ts, ok := c.Tables[name]
	if !ok {
		return nil, fmt.Errorf("relation: catalog has no stats for %q", name)
	}
	return ts, nil
}

// Cardinality is a convenience accessor returning 0 for unknown tables.
func (c *Catalog) Cardinality(name string) int {
	if ts, ok := c.Tables[name]; ok {
		return ts.Cardinality
	}
	return 0
}
