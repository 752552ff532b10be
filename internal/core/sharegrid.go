package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/skew"
)

// Share-grid evaluation: the Afrati–Ullman one-job multiway join [2],
// generalised to carry residual theta conditions. The paper cites [2]
// as the equi-join special case its framework subsumes: when a
// candidate's EQUALITY conditions connect all of its relations, the
// reducers can form a grid over the equi-attribute classes — each
// class gets a "share", tuples hash their known classes and replicate
// only over unknown ones — and any remaining inequality conditions are
// verified reducer-side. For fully key-linked candidates (e.g. TPC-H
// Q17's partkey class spanning lineitem, part and l2) the replication
// factor is 1: the job shuffles exactly its input, the decisive
// advantage over cube partitioning for equi-connected queries.

// attrClass is one equivalence class of (relation, column) pairs under
// the job's zero-offset equality conditions; one grid dimension.
type attrClass struct {
	members map[string]int // relation → column ordinal (first seen)
	share   int
}

// ShareGridApplicable reports whether the conjunction's equality
// conditions (with zero offsets) connect every relation it references.
func ShareGridApplicable(conds predicate.Conjunction) bool {
	rels := conds.Relations()
	if len(rels) < 2 {
		return false
	}
	parent := make(map[string]string, len(rels))
	var find func(string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for _, r := range rels {
		parent[r] = r
	}
	for _, c := range conds {
		if c.Op == predicate.EQ && c.LeftOffset == 0 && c.RightOffset == 0 {
			parent[find(c.Left)] = find(c.Right)
		}
	}
	root := find(rels[0])
	for _, r := range rels[1:] {
		if find(r) != root {
			return false
		}
	}
	return true
}

// buildAttrClasses unions (relation, column) pairs linked by eligible
// equality conditions, resolving columns against the job's relations.
func buildAttrClasses(conds predicate.Conjunction, rels []*relation.Relation) ([]*attrClass, error) {
	ordinal := make(map[string]int, len(rels))
	for i, r := range rels {
		ordinal[r.Name] = i
	}
	type rc struct {
		rel string
		col int
	}
	parent := make(map[rc]rc)
	var find func(rc) rc
	find = func(x rc) rc {
		if parent[x] == x {
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	add := func(x rc) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	for _, c := range conds {
		if c.Op != predicate.EQ || c.LeftOffset != 0 || c.RightOffset != 0 {
			continue
		}
		li, ok := ordinal[c.Left]
		if !ok {
			return nil, fmt.Errorf("core: share grid: unknown relation %s", c.Left)
		}
		ri, ok := ordinal[c.Right]
		if !ok {
			return nil, fmt.Errorf("core: share grid: unknown relation %s", c.Right)
		}
		lc, ok := resolveColumn(rels[li], c.Left, c.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("core: share grid: no column %s.%s", c.Left, c.LeftColumn)
		}
		rcIdx, ok := resolveColumn(rels[ri], c.Right, c.RightColumn)
		if !ok {
			return nil, fmt.Errorf("core: share grid: no column %s.%s", c.Right, c.RightColumn)
		}
		a, b := rc{c.Left, lc}, rc{c.Right, rcIdx}
		add(a)
		add(b)
		parent[find(a)] = find(b)
	}
	groups := make(map[rc][]rc)
	for x := range parent {
		r := find(x)
		groups[r] = append(groups[r], x)
	}
	var classes []*attrClass
	var roots []rc
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].rel != roots[j].rel {
			return roots[i].rel < roots[j].rel
		}
		return roots[i].col < roots[j].col
	})
	for _, r := range roots {
		cl := &attrClass{members: make(map[string]int)}
		members := groups[r]
		sort.Slice(members, func(i, j int) bool {
			if members[i].rel != members[j].rel {
				return members[i].rel < members[j].rel
			}
			return members[i].col < members[j].col
		})
		for _, m := range members {
			if _, seen := cl.members[m.rel]; !seen {
				cl.members[m.rel] = m.col
			}
		}
		if len(cl.members) >= 2 {
			classes = append(classes, cl)
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("core: share grid: no multi-relation equality class")
	}
	return classes, nil
}

// shareGrid is a share-grid job's geometry: its attribute classes and
// the modeled size of each relation, which do not depend on the reducer
// count, so the planner's k = 1..K_P sweep builds them once per
// candidate (sizing a relation walks every tuple of it) and re-runs
// only assign.
type shareGrid struct {
	classes []*attrClass
	rels    []*relation.Relation
	sizes   []float64 // per relation: max(1, ModeledSize)
}

func newShareGrid(conds predicate.Conjunction, rels []*relation.Relation) (*shareGrid, error) {
	classes, err := buildAttrClasses(conds, rels)
	if err != nil {
		return nil, err
	}
	g := &shareGrid{classes: classes, rels: rels, sizes: make([]float64, len(rels))}
	for i, r := range rels {
		g.sizes[i] = math.Max(1, float64(r.ModeledSize()))
	}
	return g, nil
}

// communication is Σ_r size_r · Π_{d unknown to r} s_d, the shuffle
// volume of [2] under the current shares.
func (g *shareGrid) communication() float64 {
	total := 0.0
	for i, r := range g.rels {
		rep := 1.0
		for _, cl := range g.classes {
			if _, knows := cl.members[r.Name]; !knows {
				rep *= float64(cl.share)
			}
		}
		total += g.sizes[i] * rep
	}
	return total
}

// assign distributes a budget of kr reducers over the grid dimensions.
// A class known by every relation of the job is "free": growing its
// share adds parallelism without replicating anyone, so one free
// dimension absorbs the entire remaining budget exactly. Replication-
// carrying dimensions grow by greedy factor steps, charging the
// communication cost of [2]'s Lagrangean solution.
func (g *shareGrid) assign(kr int) {
	classes := g.classes
	for _, cl := range classes {
		cl.share = 1
	}
	freeDim := -1
	for d, cl := range classes {
		if len(cl.members) == len(g.rels) {
			freeDim = d
			break
		}
	}
	// Grow replication-carrying dimensions while the added parallelism
	// outweighs the extra communication.
	for {
		prod := 1
		for _, cl := range classes {
			prod *= cl.share
		}
		bestDim, bestFactor := -1, 0
		bestCost := math.Inf(1)
		for d, cl := range classes {
			if d == freeDim {
				continue
			}
			for _, f := range []int{2, 3} {
				if prod*f > kr {
					continue
				}
				cl.share *= f
				cost := g.communication() / float64(f)
				cl.share /= f
				if cost < bestCost {
					bestCost, bestDim, bestFactor = cost, d, f
				}
			}
		}
		if bestDim < 0 || bestCost >= g.communication() {
			break
		}
		classes[bestDim].share *= bestFactor
	}
	// The free dimension absorbs the exact remaining budget.
	if freeDim >= 0 {
		prod := 1
		for d, cl := range classes {
			if d != freeDim {
				prod *= cl.share
			}
		}
		if fill := kr / prod; fill > 1 {
			classes[freeDim].share = fill
		}
	}
}

// replication is the share-grid duplication under the assigned shares,
// the planner's α estimate: the size-weighted mean over relations of the
// product of unknown-dimension shares.
func (g *shareGrid) replication() float64 {
	total := 0.0
	for _, size := range g.sizes {
		total += size
	}
	return g.communication() / total
}

// cells is the reducer-grid cardinality (product of assigned shares) the
// operator actually uses of its allotment — the planner estimates with
// this effective parallelism rather than the raw allotment.
func (g *shareGrid) cells() int {
	grid := 1
	for _, cl := range g.classes {
		grid *= cl.share
	}
	return grid
}

// slotRange is the contiguous run of slots a value occupies along one
// grid dimension: width 1 for cold values, the hot value's dedicated
// sub-range otherwise.
type slotRange struct{ lo, w int }

// dimSlotter assigns grid-dimension slots to attribute values. Without
// hot keys every value hashes uniformly over [0, share) — the plain
// share-grid assignment. With hot keys, each heavy hitter owns a
// dedicated sub-range of slots sized to its frequency ("finer cells"
// for the hot row): the split relation's tuples pin one slot of the
// range by content hash, the other member relations replicate across
// it, and cold values hash into the remaining slots.
type dimSlotter struct {
	dim   int
	share int
	hot   map[string]slotRange
	cold  slotRange // remaining slots for non-hot values
	split int       // relation ordinal whose tuples pin within a hot range; -1 when no hot values
}

// rangeOf returns the slot range of value v on this dimension.
func (ds *dimSlotter) rangeOf(v relation.Value) slotRange {
	// Called per candidate combination in the reducers: render into a
	// stack buffer, not a string.
	var scratch [32]byte
	text := v.AppendString(scratch[:0])
	if r, ok := ds.hot[string(text)]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte{byte(ds.dim)})
	h.Write(text)
	return slotRange{ds.cold.lo + int(h.Sum64()%uint64(ds.cold.w)), 1}
}

// buildSlotter derives the slot assignment of one dimension from the
// job's hot-key plan: hot values (frequency × share beyond the plan
// threshold) receive sub-ranges proportional to their frequency, at
// least one slot always remaining for cold values.
func buildSlotter(dim int, cl *attrClass, rels []*relation.Relation, ordinal map[string]int, plan *skew.JobPlan) *dimSlotter {
	ds := &dimSlotter{dim: dim, share: cl.share, cold: slotRange{0, cl.share}, split: -1}
	if plan == nil || cl.share < 2 {
		return ds
	}
	type hotv struct {
		key  string
		frac float64
	}
	agg := make(map[string]float64)
	for relName, col := range cl.members {
		i, ok := ordinal[relName]
		if !ok {
			continue
		}
		colName := rels[i].Schema.Column(col).Name
		for _, hk := range plan.Hot(relName, []string{colName}) {
			k := hk.Values[0].String()
			if hk.Frac > agg[k] {
				agg[k] = hk.Frac
			}
		}
	}
	var hots []hotv
	for k, f := range agg {
		if f*float64(cl.share) > plan.Threshold {
			hots = append(hots, hotv{key: k, frac: f})
		}
	}
	if len(hots) == 0 {
		return ds
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].frac != hots[j].frac {
			return hots[i].frac > hots[j].frac
		}
		return hots[i].key < hots[j].key
	})
	budget := cl.share - 1 // at least one cold slot
	used := 0
	ds.hot = make(map[string]slotRange, len(hots))
	for _, hv := range hots {
		w := int(math.Ceil(hv.frac * float64(cl.share)))
		if w > budget-used {
			w = budget - used
		}
		if w < 1 {
			break
		}
		ds.hot[hv.key] = slotRange{used, w}
		used += w
	}
	if len(ds.hot) == 0 {
		ds.hot = nil
		return ds
	}
	ds.cold = slotRange{used, cl.share - used}
	// Split relation: the largest member carries the dominant share of
	// a hot row's tuples, so its side fragments and the smaller member
	// sides replicate (ties broken by name for determinism).
	for relName := range cl.members {
		i, ok := ordinal[relName]
		if !ok {
			continue
		}
		if ds.split < 0 ||
			rels[i].Cardinality() > rels[ds.split].Cardinality() ||
			(rels[i].Cardinality() == rels[ds.split].Cardinality() && rels[i].Name < rels[ds.split].Name) {
			ds.split = i
		}
	}
	return ds
}

// BuildShareGridJob constructs the one-job share-based multiway join
// for an equi-connected conjunction with optional theta residuals. A
// non-nil plan adds heavy-hitter handling: grid dimensions whose
// attribute classes carry hot keys give those keys dedicated slot
// sub-ranges ("hot rows get finer cells") — the largest member
// relation's hot tuples spread over the sub-range by content hash while
// smaller members replicate across it, so matching combinations still
// meet in exactly one cell and the cell-ownership check keeps the
// output duplicate-free. A nil plan means no hot-key handling.
func BuildShareGridJob(name string, rels []*relation.Relation, conds predicate.Conjunction, kr int, plan *skew.JobPlan) (*mr.Job, error) {
	if len(rels) < 2 {
		return nil, fmt.Errorf("core: share grid needs >= 2 relations")
	}
	if !ShareGridApplicable(conds) {
		return nil, fmt.Errorf("core: conditions %s are not equi-connected", conds)
	}
	for _, r := range rels {
		if r.Cardinality() == 0 {
			return emptyJob(name, rels, kr), nil
		}
	}
	geom, err := newShareGrid(conds, rels)
	if err != nil {
		return nil, err
	}
	geom.assign(kr)
	classes := geom.classes
	nDims := len(classes)
	strides := make([]int, nDims)
	grid := 1
	for d := nDims - 1; d >= 0; d-- {
		strides[d] = grid
		grid *= classes[d].share
	}
	bound, err := bindConditions(conds, rels)
	if err != nil {
		return nil, err
	}
	m := len(rels)
	ordinal := make(map[string]int, m)
	for i, r := range rels {
		ordinal[r.Name] = i
	}
	je := newJoinEval(rels, bound)
	slotters := make([]*dimSlotter, nDims)
	for d, cl := range classes {
		slotters[d] = buildSlotter(d, cl, rels, ordinal, plan)
	}
	// Per relation: which dims it knows (column ordinal per dim).
	knownCol := make([][]int, m) // knownCol[rel][dim] = col or -1
	for i, r := range rels {
		knownCol[i] = make([]int, nDims)
		for d, cl := range classes {
			if col, ok := cl.members[r.Name]; ok {
				knownCol[i][d] = col
			} else {
				knownCol[i][d] = -1
			}
		}
	}
	inputs := make([]mr.Input, m)
	for i := range rels {
		i := i
		inputs[i] = mr.Input{
			Rel: rels[i],
			Map: func(t relation.Tuple, emit mr.Emitter) {
				emitGrid(t, uint8(i), i, knownCol[i], slotters, strides, 0, 0, emit)
			},
		}
	}
	// canonicalCell computes the owning cell of a full combination:
	// every dim's class has ≥2 member relations in the job, so some
	// member of the combination knows each dim.
	dimOwner := make([]int, nDims)  // relation ordinal knowing dim
	dimOwnCol := make([]int, nDims) // its column
	for d, cl := range classes {
		found := false
		for i, r := range rels {
			if col, ok := cl.members[r.Name]; ok {
				dimOwner[d], dimOwnCol[d] = i, col
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: share grid: dimension %d has no owner", d)
		}
	}
	reduce := func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
		parts := make([]relation.Tuple, m)
		for _, g := range groups {
			if len(g) == 0 {
				return
			}
		}
		// Backtracking via the shared indexed evaluator (joineval.go):
		// equality conditions — the grid's defining predicates — probe
		// per-group hash indexes instead of scanning the cross product.
		ge := je.newGroupEval(groups)
		ge.run(ctx, func(sel []int32) {
			// The verified equality conditions guarantee every member
			// of a dim's class carries the same value, so any owner is
			// representative; for a hot value the split relation's
			// tuple pins the slot within the sub-range, exactly as its
			// map side routed it.
			cell := 0
			for d := range slotters {
				ds := slotters[d]
				sr := ds.rangeOf(groups[dimOwner[d]][sel[dimOwner[d]]][dimOwnCol[d]])
				c := sr.lo
				if sr.w > 1 {
					c = sr.lo + int(skew.TupleHash(groups[ds.split][sel[ds.split]])%uint64(sr.w))
				}
				cell += c * strides[d]
			}
			if uint64(cell) != key {
				return // another reducer owns this combination
			}
			for i, g := range groups {
				parts[i] = g[sel[i]]
			}
			ctx.EmitConcat(parts...)
		})
	}
	return &mr.Job{
		Name:         name,
		Inputs:       inputs,
		Reduce:       reduce,
		NumReducers:  grid,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}, nil
}

// emitGrid recursively enumerates the reducer cells a tuple belongs
// to: known dimensions pin a slot (or, for a hot value, pin within /
// replicate across its sub-range depending on whether this relation is
// the dimension's split side), unknown dimensions are swept.
func emitGrid(t relation.Tuple, tag uint8, relOrd int, known []int, slotters []*dimSlotter, strides []int,
	dim, acc int, emit mr.Emitter) {
	if dim == len(slotters) {
		emit(uint64(acc), tag, t)
		return
	}
	ds := slotters[dim]
	col := known[dim]
	if col < 0 {
		for c := 0; c < ds.share; c++ {
			emitGrid(t, tag, relOrd, known, slotters, strides, dim+1, acc+c*strides[dim], emit)
		}
		return
	}
	sr := ds.rangeOf(t[col])
	if sr.w <= 1 {
		emitGrid(t, tag, relOrd, known, slotters, strides, dim+1, acc+sr.lo*strides[dim], emit)
		return
	}
	if relOrd == ds.split {
		c := sr.lo + int(skew.TupleHash(t)%uint64(sr.w))
		emitGrid(t, tag, relOrd, known, slotters, strides, dim+1, acc+c*strides[dim], emit)
		return
	}
	for c := sr.lo; c < sr.lo+sr.w; c++ {
		emitGrid(t, tag, relOrd, known, slotters, strides, dim+1, acc+c*strides[dim], emit)
	}
}
