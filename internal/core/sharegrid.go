package core

import (
	"fmt"
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

// gridDim routes one grid dimension: its share, the key extractor of
// each member relation of its equality class, and the skew layout that
// gives each hot value a run of consecutive slots (skew.Carve) and
// hashes every other value over the remaining ones — over all share
// slots when nothing is hot.
//
// The whole class keys in one mode, so a value routes alike from every
// member: float if any member is a float column (an int or time value
// then keys as the float its condition compares it as), dictionary
// keys against one member's dictionary if the members are strings, int
// otherwise. The conditions' own modes may be finer — int between two
// int members of a class with a float member — but a coarser routing
// key only lets more tuples meet, while a finer one, such as each
// value's text, splits tuples that satisfy the class's equalities.
type gridDim struct {
	dim   int
	share int
	// exts[i] keys relation i's member column; col < 0 marks a
	// relation outside the class, which replicates along the
	// dimension.
	exts []keyExtractor
	// owner is the first member relation: the reducer keys a
	// combination's cell by its tuple.
	owner  int
	layout *skew.Layout
}

// key is the 64-bit key relation rel's tuple t routes by on this
// dimension. It runs per tuple on the map side and per candidate
// combination in the reducers, so it allocates nothing.
func (g *gridDim) key(rel int, t relation.Tuple) uint64 {
	return g.slotKey(g.exts[rel].key(t))
}

// slotKey routes one join key: its fold with the dimension byte, so
// dimensions over the same values do not pick correlated slots.
func (g *gridDim) slotKey(k int64) uint64 {
	return mix(relation.NewFNV().Byte(byte(g.dim)).U64(uint64(k)))
}

// newGridDim lays out one dimension from the job's hot-key plan. The
// members of a run are the job's relations; the split member, whose
// tuples pin within a hot value's run while the class's other members
// replicate across it, is the largest member of the class: it carries
// the dominant share of the hot value's tuples (ties broken by name).
func newGridDim(dim int, cl *attrClass, rels []*relation.Relation, plan *skew.JobPlan) *gridDim {
	g := &gridDim{dim: dim, share: cl.share, exts: make([]keyExtractor, len(rels)), owner: -1}
	mode, ref := predicate.KeyInt, (*relation.Dict)(nil)
	for i, r := range rels {
		g.exts[i].col = -1
		col, ok := cl.members[r.Name]
		if !ok {
			continue
		}
		g.exts[i].col = col
		if g.owner < 0 {
			g.owner = i
		}
		switch r.Schema.Column(col).Kind {
		case relation.KindFloat:
			mode = predicate.KeyFloat
		case relation.KindString:
			mode = predicate.KeyDict
			if ref == nil {
				ref = r.DictOf(col)
			}
		}
	}
	for i := range g.exts {
		if e := &g.exts[i]; e.col >= 0 {
			e.mode, e.dict, e.direct = mode, ref, ref != nil && rels[i].DictOf(e.col) == ref
		}
	}
	var hots []skew.Hot
	split, threshold := -1, 0.0
	if plan != nil {
		threshold = plan.Threshold
		for i, r := range rels {
			e := &g.exts[i]
			if e.col < 0 {
				continue
			}
			for _, hk := range plan.Hot(r.Name, []string{r.Schema.Column(e.col).Name}) {
				fracs := make([]float64, len(rels))
				fracs[i] = hk.Frac
				hots = append(hots, skew.Hot{Key: g.slotKey(e.valueKey(hk.Values[0])), Text: hk.Values[0].String(), Fracs: fracs})
			}
			if split < 0 || r.Cardinality() > rels[split].Cardinality() ||
				(r.Cardinality() == rels[split].Cardinality() && r.Name < rels[split].Name) {
				split = i
			}
		}
	}
	g.layout = skew.Carve(cl.share, hots, split, threshold)
	return g
}

// pinHash is the TupleHash member's tuple pins its axis of run by; a
// member with share 1 replicates across the run and needs none.
func pinHash(run *skew.Run, member int, t relation.Tuple) uint64 {
	if run.Share(member) < 2 {
		return 0
	}
	return skew.TupleHash(t)
}

// BuildShareGridJob constructs the one-job share-based multiway join
// for an equi-connected conjunction with optional theta residuals. A
// non-nil plan adds heavy-hitter handling: grid dimensions whose
// attribute classes carry hot keys give each such key a skew.Run of
// consecutive slots ("hot rows get finer cells") — the largest member
// relation's hot tuples spread over the run by content hash while
// smaller members replicate across it, so matching combinations still
// meet in exactly one cell and the cell-ownership check (Run.Owner)
// keeps the output duplicate-free. A nil plan means no hot-key
// handling.
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
	je := newJoinEval(rels, bound)
	dims := make([]*gridDim, nDims)
	for d, cl := range classes {
		dims[d] = newGridDim(d, cl, rels, plan)
	}
	inputs := make([]mr.Input, m)
	for i := range rels {
		inputs[i] = mr.Input{
			Rel: rels[i],
			Map: func(t relation.Tuple, emit mr.Emitter) {
				emitGrid(t, i, dims, strides, 0, 0, emit)
			},
		}
	}
	reduce := func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
		for _, g := range groups {
			if len(g) == 0 {
				return
			}
		}
		// Backtracking via the shared indexed evaluator (joineval.go):
		// equality conditions — the grid's defining predicates — probe
		// per-group hash indexes instead of scanning the cross product.
		ge := je.newGroupEval(groups)
		defer je.release(ge)
		parts, hashes := ge.parts, ge.hashes // hashes: per relation, for hot values' runs
		ge.run(ctx, func(sel []int32) {
			// The verified equality conditions guarantee every member
			// of a dim's class carries the same key, so the owner's
			// tuple is representative; a hot value's run owns the
			// combination at the slot its members' tuples share,
			// exactly as their map side routed them.
			cell := 0
			for d, g := range dims {
				key := g.key(g.owner, groups[g.owner][sel[g.owner]])
				run := g.layout.Hot(key)
				if run == nil {
					cell += g.layout.Cold(key) * strides[d]
					continue
				}
				for i, grp := range groups {
					hashes[i] = pinHash(run, i, grp[sel[i]])
				}
				cell += run.Owner(hashes) * strides[d]
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
// to: known dimensions pin a slot (or, for a hot value, the slots of
// its run this relation's tuple reaches), unknown dimensions are swept.
func emitGrid(t relation.Tuple, relOrd int, dims []*gridDim, strides []int, dim, acc int, emit mr.Emitter) {
	if dim == len(dims) {
		emit(uint64(acc))
		return
	}
	g := dims[dim]
	if g.exts[relOrd].col < 0 {
		for c := 0; c < g.share; c++ {
			emitGrid(t, relOrd, dims, strides, dim+1, acc+c*strides[dim], emit)
		}
		return
	}
	key := g.key(relOrd, t)
	run := g.layout.Hot(key)
	if run == nil {
		emitGrid(t, relOrd, dims, strides, dim+1, acc+g.layout.Cold(key)*strides[dim], emit)
		return
	}
	for _, c := range run.Slots(relOrd, pinHash(run, relOrd, t)) {
		emitGrid(t, relOrd, dims, strides, dim+1, acc+c*strides[dim], emit)
	}
}
