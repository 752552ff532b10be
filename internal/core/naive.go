package core

import (
	"fmt"

	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// Naive evaluates the query by in-memory backtracking nested-loop join
// — no MapReduce, no partitioning. It is the correctness oracle every
// planner (ours and the baselines) is tested against, and doubles as
// the executor for Table 2/3's exact result selectivities.
func Naive(q *query.Query, db *DB) (*relation.Relation, error) {
	order, err := OrderRelations(q.Conditions)
	if err != nil {
		return nil, err
	}
	if len(order) != len(q.Relations) {
		return nil, fmt.Errorf("core: conditions cover %d of %d relations", len(order), len(q.Relations))
	}
	rels := make([]*relation.Relation, len(order))
	for i, name := range order {
		r, err := db.Relation(name)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	bound, err := bindConditions(q.Conditions, rels)
	if err != nil {
		return nil, err
	}
	m := len(rels)
	checksAt := make([][]boundCond, m)
	for _, bc := range bound {
		checksAt[bc.hi] = append(checksAt[bc.hi], bc)
	}
	out := relation.New(q.Name, prefixedSchema(rels))
	partial := make([]relation.Tuple, m)
	var rec func(j int)
	rec = func(j int) {
		if j == m {
			row := make(relation.Tuple, 0, out.Schema.Len())
			for _, t := range partial {
				row = append(row, t...)
			}
			out.Tuples = append(out.Tuples, row)
			return
		}
		for _, t := range rels[j].Tuples {
			ok := true
			for _, bc := range checksAt[j] {
				lv := partial[bc.lo][bc.loCol].Add(bc.loOff)
				rv := t[bc.hiCol].Add(bc.hiOff)
				if !bc.op.Eval(relation.Compare(lv, rv)) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			partial[j] = t
			rec(j + 1)
		}
	}
	if m > 0 && allNonEmpty(rels) {
		rec(0)
	}
	return out, nil
}

func allNonEmpty(rels []*relation.Relation) bool {
	for _, r := range rels {
		if r.Cardinality() == 0 {
			return false
		}
	}
	return true
}

// CanonicalizeResult reorders a join output's columns into ascending
// column-name order so results computed with different relation orders
// compare equal. Returns a new relation.
func CanonicalizeResult(r *relation.Relation) *relation.Relation {
	n := r.Schema.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = r.Schema.Column(i).Name
	}
	sortIdxByName(idx, names)
	cols := make([]relation.Column, n)
	for i, j := range idx {
		cols[i] = r.Schema.Column(j)
	}
	out := relation.New(r.Name, relation.MustSchema(cols...))
	out.VolumeMultiplier = r.VolumeMultiplier
	out.Tuples = make([]relation.Tuple, len(r.Tuples))
	for ti, t := range r.Tuples {
		nt := make(relation.Tuple, n)
		for i, j := range idx {
			nt[i] = t[j]
		}
		out.Tuples[ti] = nt
	}
	return out
}

func sortIdxByName(idx []int, names []string) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && names[idx[j]] < names[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// ExactQuerySelectivity computes |result| / Π|R_i| by running Naive —
// the "Result Sel." column of Tables 2 and 3.
func ExactQuerySelectivity(q *query.Query, db *DB) (float64, error) {
	res, err := Naive(q, db)
	if err != nil {
		return 0, err
	}
	denom := 1.0
	for _, name := range q.Relations {
		r, err := db.Relation(name)
		if err != nil {
			return 0, err
		}
		if r.Cardinality() == 0 {
			return 0, nil
		}
		denom *= float64(r.Cardinality())
	}
	return float64(res.Cardinality()) / denom, nil
}

// InequalityFuncs lists the distinct non-equality operators a query
// uses (the "Inequality Func." column of Tables 2 and 3).
func InequalityFuncs(q *query.Query) []predicate.Op {
	seen := map[predicate.Op]bool{}
	var out []predicate.Op
	for _, c := range q.Conditions {
		if c.Op != predicate.EQ && !seen[c.Op] {
			seen[c.Op] = true
			out = append(out, c.Op)
		}
	}
	return out
}
