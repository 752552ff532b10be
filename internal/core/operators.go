package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// What the three physical operators (thetajob.go, sharegrid.go,
// hashequi.go) share: the job kinds, the relation order a reducer
// backtracks in, the output schema of a join over ordered relations,
// and conditions bound to that order.

// JobKind distinguishes the physical operators a planned job can use.
type JobKind uint8

const (
	// KindHilbertTheta is Algorithm 1: the cross-product hyper-cube of
	// the job's relations partitioned by a Hilbert curve; handles any
	// theta conditions.
	KindHilbertTheta JobKind = iota
	// KindHashEqui is the classic repartition equi-join: usable when
	// every condition of the job is an equality between the same two
	// relations — the join key becomes the (composite) partition key
	// with no tuple duplication.
	KindHashEqui
	// KindShareGrid is the Afrati–Ullman share-based one-job multiway
	// join [2] with reducer-side theta residuals: usable when the
	// job's equality conditions connect all of its relations.
	KindShareGrid
)

// String names the kind.
func (k JobKind) String() string {
	switch k {
	case KindHilbertTheta:
		return "hilbert-theta"
	case KindHashEqui:
		return "hash-equi"
	case KindShareGrid:
		return "share-grid"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OrderRelations produces a join order for the relations of a
// conjunction in which every relation after the first shares at least
// one condition with an earlier relation, so the reduce-side
// backtracking join can prune as it extends. Chain-shaped condition
// sets yield the chain order.
func OrderRelations(conds predicate.Conjunction) ([]string, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("core: empty conjunction")
	}
	rels := conds.Relations()
	deg := make(map[string]int, len(rels))
	for _, c := range conds {
		deg[c.Left]++
		deg[c.Right]++
	}
	// Start from a minimum-degree relation (a chain endpoint when the
	// set is a chain), breaking ties lexicographically.
	start := rels[0]
	for _, r := range rels {
		if deg[r] < deg[start] || (deg[r] == deg[start] && r < start) {
			start = r
		}
	}
	order := []string{start}
	placed := map[string]bool{start: true}
	for len(order) < len(rels) {
		// Next: an unplaced relation connected to a placed one,
		// preferring the one with most conditions into the placed set.
		bestRel, bestLinks := "", 0
		for _, r := range rels {
			if placed[r] {
				continue
			}
			links := 0
			for _, c := range conds {
				if other, ok := c.Other(r); ok && placed[other] {
					links++
				}
			}
			if links > bestLinks || (links == bestLinks && links > 0 && (bestRel == "" || r < bestRel)) {
				bestRel, bestLinks = r, links
			}
		}
		if bestRel == "" {
			return nil, fmt.Errorf("core: conjunction %s is not connected", conds)
		}
		order = append(order, bestRel)
		placed[bestRel] = true
	}
	return order, nil
}

// AllEquiSamePair reports whether every condition is an equality
// between the same two relations — the KindHashEqui precondition.
func AllEquiSamePair(conds predicate.Conjunction) bool {
	if len(conds) == 0 {
		return false
	}
	rels := conds.Relations()
	if len(rels) != 2 {
		return false
	}
	for _, c := range conds {
		if !c.Op.IsEquality() {
			return false
		}
	}
	return true
}

// prefixedSchema concatenates relation schemas with "rel." prefixes,
// the output schema of a join job over the ordered relations.
func prefixedSchema(rels []*relation.Relation) *relation.Schema {
	var cols []relation.Column
	for _, r := range rels {
		for i := 0; i < r.Schema.Len(); i++ {
			c := r.Schema.Column(i)
			cols = append(cols, relation.Column{Name: r.Name + "." + c.Name, Kind: c.Kind})
		}
	}
	return relation.MustSchema(cols...)
}

// prefixedDicts concatenates the relations' per-column dictionaries in
// prefixedSchema's column order — the OutputDicts of a join job over
// the ordered relations. Returns nil when no input column has one.
func prefixedDicts(rels []*relation.Relation) []*relation.Dict {
	var out []*relation.Dict
	any := false
	for _, r := range rels {
		for i := 0; i < r.Schema.Len(); i++ {
			d := r.DictOf(i)
			if d != nil {
				any = true
			}
			out = append(out, d)
		}
	}
	if !any {
		return nil
	}
	return out
}

// resolveColumn finds "relName.col" inside r: either r IS relName (a
// base relation, bare column names) or r is a join output carrying
// prefixed columns.
func resolveColumn(r *relation.Relation, relName, col string) (int, bool) {
	if idx, ok := r.Schema.Lookup(relName + "." + col); ok {
		return idx, true
	}
	if r.Name == relName {
		if idx, ok := r.Schema.Lookup(col); ok {
			return idx, true
		}
	}
	return 0, false
}

// boundCond is a condition compiled against the job's relation order:
// hi is the later ordinal (the extension step that can evaluate it),
// lo the earlier.
type boundCond struct {
	cond   predicate.Condition
	lo, hi int
	loCol  int // column ordinal in relation lo
	hiCol  int // column ordinal in relation hi
	// loOff/hiOff are the additive constants on each side, oriented so
	// that the predicate reads: lo.val+loOff op hi.val+hiOff with op
	// oriented lo→hi.
	loOff, hiOff float64
	op           predicate.Op
}

func bindConditions(conds predicate.Conjunction, rels []*relation.Relation) ([]boundCond, error) {
	ordinal := make(map[string]int, len(rels))
	for i, r := range rels {
		ordinal[r.Name] = i
	}
	var out []boundCond
	for _, c := range conds {
		li, ok := ordinal[c.Left]
		if !ok {
			return nil, fmt.Errorf("core: condition %s references %q outside the job", c, c.Left)
		}
		ri, ok := ordinal[c.Right]
		if !ok {
			return nil, fmt.Errorf("core: condition %s references %q outside the job", c, c.Right)
		}
		oriented := c
		lo, hi := li, ri
		if li > ri {
			oriented = c.Reversed()
			lo, hi = ri, li
		}
		loCol, ok := resolveColumn(rels[lo], oriented.Left, oriented.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("core: condition %s: no column %s.%s", c, oriented.Left, oriented.LeftColumn)
		}
		hiCol, ok := resolveColumn(rels[hi], oriented.Right, oriented.RightColumn)
		if !ok {
			return nil, fmt.Errorf("core: condition %s: no column %s.%s", c, oriented.Right, oriented.RightColumn)
		}
		out = append(out, boundCond{
			cond: c, lo: lo, hi: hi,
			loCol: loCol, hiCol: hiCol,
			loOff: oriented.LeftOffset, hiOff: oriented.RightOffset,
			op: oriented.Op,
		})
	}
	return out, nil
}

// ridOrdinal returns the RowIDColumn ordinal for a base or prefixed
// relation.
func ridOrdinal(r *relation.Relation) (int, error) {
	if idx, ok := resolveColumn(r, r.Name, RowIDColumn); ok {
		return idx, nil
	}
	// Join outputs: any column ending in ".rid" — prefer the first.
	for i := 0; i < r.Schema.Len(); i++ {
		name := r.Schema.Column(i).Name
		if len(name) > len(RowIDColumn) && name[len(name)-len(RowIDColumn)-1:] == "."+RowIDColumn {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: relation %s lacks a %s column", r.Name, RowIDColumn)
}

func emptyJob(name string, rels []*relation.Relation, kr int) *mr.Job {
	inputs := make([]mr.Input, len(rels))
	for i := range rels {
		inputs[i] = mr.Input{Rel: rels[i], Map: func(t relation.Tuple, emit mr.Emitter) {}}
	}
	return &mr.Job{
		Name:         name,
		Inputs:       inputs,
		Reduce:       func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {},
		NumReducers:  kr,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}
}
