package predicate

import (
	"fmt"

	"repro/internal/relation"
)

// Selectivity estimation. The paper runs a sampling pass at data-upload
// time (§6.3: "we run a sampling algorithm to collect rough data
// statistics") and uses selectivities to derive the Map/Reduce output
// ratios α and β of the cost model (§4.1). We estimate a condition's
// selectivity by evaluating it over the cross product of the retained
// sample rows of both relations, which relation.Analyze keeps for every
// non-empty relation.

// EstimateSelectivity returns the estimated fraction of the cross
// product |L|×|R| satisfying the condition, in [0,1]. An empty relation
// has no pair to sample and none that could match: 0.
func EstimateSelectivity(c Condition, cat *relation.Catalog) (float64, error) {
	ls, err := cat.Stats(c.Left)
	if err != nil {
		return 0, err
	}
	rs, err := cat.Stats(c.Right)
	if err != nil {
		return 0, err
	}
	if sel, ok := sampleSelectivity(c, ls, rs); ok {
		return sel, nil
	}
	// The sample could not answer: it lacks a column, or it has no rows.
	if columnOrdinal(ls, c.LeftColumn) < 0 {
		return 0, fmt.Errorf("predicate: no stats for %s.%s", c.Left, c.LeftColumn)
	}
	if columnOrdinal(rs, c.RightColumn) < 0 {
		return 0, fmt.Errorf("predicate: no stats for %s.%s", c.Right, c.RightColumn)
	}
	return 0, nil
}

// sampleSelectivity evaluates c over sample row pairs. It caps the pair
// count to keep estimation cheap, striding through the larger sample.
func sampleSelectivity(c Condition, ls, rs *relation.TableStats) (float64, bool) {
	const maxPairs = 250000
	if len(ls.SampleRows) == 0 || len(rs.SampleRows) == 0 {
		return 0, false
	}
	lIdx := columnOrdinal(ls, c.LeftColumn)
	rIdx := columnOrdinal(rs, c.RightColumn)
	if lIdx < 0 || rIdx < 0 {
		return 0, false
	}
	lRows, rRows := ls.SampleRows, rs.SampleRows
	// Stride sampling keeps the pair count bounded while remaining
	// deterministic.
	lStride, rStride := 1, 1
	for (len(lRows)/lStride)*(len(rRows)/rStride) > maxPairs {
		if len(lRows)/lStride >= len(rRows)/rStride {
			lStride++
		} else {
			rStride++
		}
	}
	match, total := 0, 0
	for i := 0; i < len(lRows); i += lStride {
		lv := lRows[i][lIdx].Add(c.LeftOffset)
		for j := 0; j < len(rRows); j += rStride {
			rv := rRows[j][rIdx].Add(c.RightOffset)
			total++
			if c.Op.Eval(relation.Compare(lv, rv)) {
				match++
			}
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(match) / float64(total), true
}

// columnOrdinal returns the position of the named column within the
// sample rows (schema order), or -1 when the column is unknown.
func columnOrdinal(ts *relation.TableStats, name string) int {
	for i, n := range ts.ColumnOrder() {
		if n == name {
			return i
		}
	}
	return -1
}

// EstimateConjunction multiplies member selectivities under the
// independence assumption the paper's model inherits from classic
// System R estimation.
func EstimateConjunction(cj Conjunction, cat *relation.Catalog) (float64, error) {
	sel := 1.0
	for _, c := range cj {
		s, err := EstimateSelectivity(c, cat)
		if err != nil {
			return 0, err
		}
		sel *= s
	}
	return sel, nil
}

// ExactSelectivity computes the true fraction of the cross product
// satisfying the condition. Exponential in data size; used only in
// tests and by Table 2/3 harnesses over generated data.
func ExactSelectivity(c Condition, left, right *relation.Relation) (float64, error) {
	eval, err := c.Bound(left.Schema, right.Schema)
	if err != nil {
		return 0, err
	}
	if left.Cardinality() == 0 || right.Cardinality() == 0 {
		return 0, nil
	}
	match := 0
	for _, lt := range left.Tuples {
		for _, rt := range right.Tuples {
			if eval(lt, rt) {
				match++
			}
		}
	}
	return float64(match) / (float64(left.Cardinality()) * float64(right.Cardinality())), nil
}
