package relation

import (
	"fmt"
	"math/rand"
)

// HotKey is one detected heavy hitter over a column set: a value
// combination — a single value, for a set of one column — estimated to
// carry at least a minimum share of the relation's tuples. The skew
// subsystem (internal/skew) computes these from the statistics sample
// — or exactly, for small relations — and the planner and partitioners
// consume them to split hot keys across reducers.
type HotKey struct {
	Values []Value // one per detection column, in the order they were given
	Count  int64   // estimated occurrences in the full relation
	Frac   float64 // estimated fraction of tuples carrying Values
}

// TableStats is what the planner reads about one relation: cardinality,
// sizes, the retained sample rows every selectivity is estimated from
// (the paper's upload-time sampling pass, §6.3), and the heavy hitters
// detected over them.
type TableStats struct {
	Relation    string
	Cardinality int
	AvgTuple    float64
	ModeledSize int64
	SampleRows  []Tuple

	// HotKeys holds the single-column heavy-hitter reports, ordered by
	// estimated count descending. A nil map means detection never ran;
	// an empty slice for a column means it was measured near-uniform.
	HotKeys map[string][]HotKey

	colOrder []string
}

// ColumnOrder returns column names in schema order, matching the value
// order inside SampleRows tuples.
func (ts *TableStats) ColumnOrder() []string { return ts.colOrder }

// Analyze draws the relation's statistics sample and produces its
// TableStats. sampleSize bounds the retained sample rows used for
// pairwise selectivity estimation; <=0 means a default of 1000.
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
	ts := &TableStats{
		Relation:    r.Name,
		Cardinality: r.Cardinality(),
		AvgTuple:    r.AvgTupleSize(),
		ModeledSize: r.ModeledSize(),
		SampleRows:  r.Sample(sampleSize, rng),
	}
	for ci := 0; ci < r.Schema.Len(); ci++ {
		ts.colOrder = append(ts.colOrder, r.Schema.Column(ci).Name)
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
