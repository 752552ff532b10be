package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// Indexed reducer-side join evaluation, shared by the theta (hyper-
// cube) and share-grid reducers. Both operators backtrack over per-
// relation groups inside a reduce call, extending a partial
// combination one relation at a time and checking the conditions whose
// later side just became bound. The evaluator compiles those checks
// once per job (newJoinEval) and, per reduce group, builds lightweight
// indexes lazily the first time an extension step is probed
// (groupEval):
//
//   - every numeric condition gets a normalized sort key per candidate
//     tuple — an int64 extracted once (relation.SortKeyInt/SortKeyFloat,
//     mode from predicate.CondKeyMode) — so the inner loop compares raw
//     integers instead of calling relation.Compare(Value.Add(...), ...)
//     per candidate;
//   - string conditions ride the same indexes when a side's column
//     carries an order-preserving dictionary (predicate.KeyDict):
//     interned values key on their embedded codes, the other side
//     probes the reference dictionary (see keycolumns.go and
//     relation.Dict);
//   - per step, candidate keys are extracted once per distinct
//     (column, offset, mode, dict) recipe into contiguous []int64
//     columns shared by all conditions reading them (the struct-of-
//     arrays cache of keycolumns.go);
//   - an equality condition indexes the step's candidates in a hash
//     table keyed on the normalized key: a probe examines only the
//     matching bucket;
//   - range conditions keep the candidates key-sorted (a stable radix
//     sort for all but short runs); all range conditions anchored on
//     the same column (and offset) intersect into a single subrange:
//     the first binary-searches the run, each later one gallops from
//     the end of the window it leaves fixed, so a band predicate
//     (lo < x AND x < hi) costs one search plus about log2 of the
//     band's width, not a scan;
//   - remaining non-keyable conditions (dictionary-less strings, mixed
//     kinds) fall back to relation.Compare, with a Compare-sorted run
//     (anchorRange) when they are the only handle on a step.
//
// Candidate iteration order is deterministic (original group order for
// hash probes and linear scans; stable key order for sorted runs), so
// the engine's cross-worker determinism guarantee is preserved.
//
// Work accounting: one ReduceContext.AddWork unit per candidate
// examined at a step that carries conditions. Steps without conditions
// (always the backtracker's root) enumerate without charging, matching
// the previous theta reducer; indexing therefore strictly lowers
// CombinationsChecked whenever it prunes candidates the nested loop
// used to enumerate.

// ccond is one compiled condition: a boundCond, its key mode and the
// two key-extraction recipes (probe side lo, candidate side hi). hiSlot
// indexes the candidate extractor within its step's shared key-column
// cache. The extractors are unset for KeyGeneric conditions.
type ccond struct {
	bc     boundCond
	mode   predicate.KeyMode
	lo, hi keyExtractor
	hiSlot int
}

// loKey extracts the probe-side normalized key from the bound partial
// tuple.
func (c *ccond) loKey(t relation.Tuple) int64 { return c.lo.key(t) }

// hiKey extracts the candidate-side normalized key.
func (c *ccond) hiKey(t relation.Tuple) int64 { return c.hi.key(t) }

// evalKeys applies the condition's operator to two normalized keys.
func (c *ccond) evalKeys(lo, hi int64) bool {
	cmp := 0
	if lo < hi {
		cmp = -1
	} else if lo > hi {
		cmp = 1
	}
	return c.bc.op.Eval(cmp)
}

// joinStep is the compiled check set of one extension step: the
// conditions whose later relation ordinal is this step, split by
// evaluation strategy.
type joinStep struct {
	eq  []ccond // fast equalities: hash index on eq[0]
	rng []ccond // fast ranges: sorted run on rng[0]'s column
	ne  []ccond // fast inequalities (<>): key comparison only
	gen []ccond // generic: relation.Compare fallback
	// genAnchor indexes the first range-comparable generic condition
	// (usable with anchorRange when no fast index exists); -1 if none.
	genAnchor int
	// exts are the step's deduplicated candidate-side key extractors;
	// ccond.hiSlot indexes into them (and into the per-group key
	// columns built from them).
	exts []keyExtractor
}

func (st *joinStep) empty() bool {
	return len(st.eq) == 0 && len(st.rng) == 0 && len(st.ne) == 0 && len(st.gen) == 0
}

// slotFor registers a candidate-side extractor, returning the slot of
// an existing equivalent one when the key column can be shared.
func (st *joinStep) slotFor(e keyExtractor) int {
	for i := range st.exts {
		if st.exts[i].sameKey(&e) {
			return i
		}
	}
	st.exts = append(st.exts, e)
	return len(st.exts) - 1
}

// joinEval is the per-job compiled plan: one joinStep per relation
// ordinal. It is immutable and shared by all reduce calls of the job.
type joinEval struct {
	m     int
	steps []joinStep
}

// newJoinEval compiles the bound conditions of a job over its ordered
// relations. Column kinds come from the relation schemas; a condition
// between numeric columns gets a fast key mode, string conditions get
// dictionary keys when either side's column carries a dictionary
// (which then covers that whole side, making it a sound reference for
// both), and everything else goes through the generic path.
func newJoinEval(rels []*relation.Relation, bound []boundCond) *joinEval {
	je := &joinEval{m: len(rels), steps: make([]joinStep, len(rels))}
	for i := range je.steps {
		je.steps[i].genAnchor = -1
	}
	for _, bc := range bound {
		st := &je.steps[bc.hi]
		loKind := rels[bc.lo].Schema.Column(bc.loCol).Kind
		hiKind := rels[bc.hi].Schema.Column(bc.hiCol).Kind
		loDict := rels[bc.lo].DictOf(bc.loCol)
		hiDict := rels[bc.hi].DictOf(bc.hiCol)
		// The candidate side's dictionary is the preferred reference:
		// it makes every candidate key a direct code read.
		ref := hiDict
		if ref == nil {
			ref = loDict
		}
		mode := predicate.CondKeyModeDict(loKind, bc.loOff, hiKind, bc.hiOff, ref != nil)
		c := ccond{bc: bc, mode: mode}
		if mode != predicate.KeyGeneric {
			c.lo = keyExtractor{mode: mode, col: bc.loCol, off: bc.loOff}
			c.hi = keyExtractor{mode: mode, col: bc.hiCol, off: bc.hiOff}
			if mode == predicate.KeyDict {
				c.lo.dict, c.lo.direct = ref, loDict == ref
				c.hi.dict, c.hi.direct = ref, hiDict == ref
			}
			c.hiSlot = st.slotFor(c.hi)
		}
		switch {
		case mode == predicate.KeyGeneric:
			if bc.op != predicate.NE && st.genAnchor < 0 {
				st.genAnchor = len(st.gen)
			}
			st.gen = append(st.gen, c)
		case bc.op == predicate.EQ:
			st.eq = append(st.eq, c)
		case bc.op == predicate.NE:
			st.ne = append(st.ne, c)
		default:
			st.rng = append(st.rng, c)
		}
	}
	return je
}

// matchPair reports whether (l, r) satisfies every condition of a
// two-relation evaluator, comparing normalized keys pair-by-pair
// without any per-group setup. It is the cheap path for the tiny
// reduce groups a high-cardinality equi-join produces, where building
// key arrays and indexes would dominate the handful of comparisons.
func (je *joinEval) matchPair(l, r relation.Tuple) bool {
	st := &je.steps[1]
	for ci := range st.eq {
		c := &st.eq[ci]
		if c.loKey(l) != c.hiKey(r) {
			return false
		}
	}
	for ci := range st.rng {
		c := &st.rng[ci]
		if !c.evalKeys(c.loKey(l), c.hiKey(r)) {
			return false
		}
	}
	for ci := range st.ne {
		c := &st.ne[ci]
		if c.loKey(l) == c.hiKey(r) {
			return false
		}
	}
	for ci := range st.gen {
		bc := &st.gen[ci].bc
		if !bc.op.Eval(relation.Compare(l[bc.loCol].Add(bc.loOff), r[bc.hiCol].Add(bc.hiOff))) {
			return false
		}
	}
	return true
}

// stepIndex is the lazily built per-reduce-group index of one step.
type stepIndex struct {
	built bool
	// cols[x] is the contiguous key column of step extractor slot x
	// (see keycolumns.go); all backed by one allocation.
	cols [][]int64
	// Per-condition views into cols, aligned with the step's cond
	// lists — conditions sharing a slot alias the same column.
	eqKeys  [][]int64
	rngKeys [][]int64
	neKeys  [][]int64
	// genVals[ci][i] is candidate i's hi-side value with the generic
	// condition's offset applied (what relation.Compare sees).
	genVals [][]relation.Value
	all     []int32 // identity candidate list, for condition-free steps
	// Hash index on eqKeys[0] (bucket lists keep candidate order).
	hash map[int64][]int32
	// Sorted run on rngKeys[0]: order is the stable key-sorted
	// candidate permutation, skeys the keys in that order.
	order []int32
	skeys []int64
	// Compare-sorted run on genVals[genAnchor].
	gorder  []int32
	gsorted []relation.Value
	// Probe-side buffers, reused across probes of this step (safe: the
	// depth-first backtracker probes one partial per depth at a time).
	pkEq, pkRng, pkNe []int64
	pvGen             []relation.Value
}

// indexMinSize is the group size below which building a hash table or
// sorted run costs more than linear scans over the extracted keys.
const indexMinSize = 8

// directPairVerify is the |ls|×|rs| bound below which a two-relation
// reduce group verifies pairs directly (matchPair) instead of paying
// groupEval's per-group slice setup.
const directPairVerify = 16

// groupEval evaluates one reduce group: the per-relation candidate
// groups plus lazily built step indexes and per-depth scratch buffers.
type groupEval struct {
	je      *joinEval
	groups  [][]relation.Tuple
	idx     []stepIndex
	scratch [][]int32 // per-depth surviving-candidate buffers
	sel     []int32
}

// newGroupEval prepares evaluation over the group's relations. Every
// groups[i] must be non-empty (callers return early otherwise).
func (je *joinEval) newGroupEval(groups [][]relation.Tuple) *groupEval {
	return &groupEval{
		je:      je,
		groups:  groups,
		idx:     make([]stepIndex, je.m),
		scratch: make([][]int32, je.m),
		sel:     make([]int32, je.m),
	}
}

// run backtracks over the groups and invokes onMatch with the selected
// candidate ordinals (sel[i] indexes groups[i]) for every combination
// satisfying all compiled conditions. sel is reused across calls; the
// callback must not retain it.
func (ge *groupEval) run(ctx *mr.ReduceContext, onMatch func(sel []int32)) {
	m := ge.je.m
	var rec func(j int)
	rec = func(j int) {
		if j == m {
			onMatch(ge.sel)
			return
		}
		for _, idx := range ge.candidates(j, ctx) {
			ge.sel[j] = idx
			rec(j + 1)
		}
	}
	rec(0)
}

// buildStep extracts the step's normalized keys and builds its index.
// Called on the first probe of the step, so steps pruned away upstream
// cost nothing.
func (ge *groupEval) buildStep(j int) {
	st := &ge.je.steps[j]
	si := &ge.idx[j]
	si.built = true
	cands := ge.groups[j]
	n := len(cands)
	if st.empty() {
		si.all = make([]int32, n)
		for i := range si.all {
			si.all[i] = int32(i)
		}
		return
	}
	// Materialise each distinct extractor once (keycolumns.go), then
	// alias the per-condition views into the shared columns.
	si.cols = buildKeyColumns(st.exts, cands)
	view := func(cs []ccond) [][]int64 {
		if len(cs) == 0 {
			return nil
		}
		out := make([][]int64, len(cs))
		for ci := range cs {
			out[ci] = si.cols[cs[ci].hiSlot]
		}
		return out
	}
	si.eqKeys = view(st.eq)
	si.rngKeys = view(st.rng)
	si.neKeys = view(st.ne)
	if len(st.gen) > 0 {
		si.genVals = make([][]relation.Value, len(st.gen))
		for ci := range st.gen {
			bc := &st.gen[ci].bc
			vs := make([]relation.Value, n)
			for i, t := range cands {
				vs[i] = t[bc.hiCol].Add(bc.hiOff)
			}
			si.genVals[ci] = vs
		}
	}
	si.pkEq = make([]int64, len(st.eq))
	si.pkRng = make([]int64, len(st.rng))
	si.pkNe = make([]int64, len(st.ne))
	si.pvGen = make([]relation.Value, len(st.gen))
	if n < indexMinSize {
		return
	}
	switch {
	case len(st.eq) > 0:
		h := make(map[int64][]int32, n)
		for i, k := range si.eqKeys[0] {
			h[k] = append(h[k], int32(i))
		}
		si.hash = h
	case len(st.rng) > 0:
		si.order, si.skeys = sortedByKey(si.rngKeys[0])
	case st.genAnchor >= 0:
		vals := si.genVals[st.genAnchor]
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return relation.Compare(vals[a], vals[b]) })
		si.gorder = order
		si.gsorted = make([]relation.Value, n)
		for x, i := range order {
			si.gsorted[x] = vals[i]
		}
	}
}

// radixMinSize is the run length from which sortedByKey radix-sorts.
// Below it the radix sort's fixed cost, a 256-entry count per pass,
// dominates: in BenchmarkSortedRun the comparison sort takes half the
// time at 16 keys, and the two are about even at 48.
const radixMinSize = 64

// sortedByKey returns the candidate permutation sorted ascending by key,
// equal keys keeping their original order, and the keys in that order.
// Runs of radixMinSize keys or more take a stable LSD radix sort, one
// counting pass per byte of uint64(key)^1<<63 (int64 order as unsigned
// order) in which the keys differ at all, so a run of, say, day-scale
// timestamps costs three passes, not eight. Shorter runs sort (key,
// ordinal) pairs: the ordinal as tie-break makes an unstable sort
// produce the same stable permutation.
func sortedByKey(keys []int64) (order []int32, sorted []int64) {
	n := len(keys)
	if n < radixMinSize {
		type keyOrd struct {
			key int64
			ord int32
		}
		ks := make([]keyOrd, n)
		for i, k := range keys {
			ks[i] = keyOrd{k, int32(i)}
		}
		slices.SortFunc(ks, func(a, b keyOrd) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.ord, b.ord)
		})
		order, sorted = make([]int32, n), make([]int64, n)
		for x, k := range ks {
			order[x], sorted[x] = k.ord, k.key
		}
		return order, sorted
	}
	const sign = 1 << 63
	var diff uint64
	for _, k := range keys {
		diff |= uint64(k ^ keys[0])
	}
	var shifts [8]uint
	passes := 0
	for s := uint(0); s < 64; s += 8 {
		if diff>>s&0xff != 0 {
			shifts[passes] = s
			passes++
		}
	}
	if passes == 0 { // every key equal: one pass still copies them out
		passes = 1
	}
	// Two halves of one buffer per column: pass p scatters into half
	// p&1 from the other, the first pass straight from keys.
	ords, ks := make([]int32, 2*n), make([]int64, 2*n)
	srcK, srcO := keys, []int32(nil)
	for p, s := range shifts[:passes] {
		h := p % 2 * n
		dstK, dstO := ks[h:h+n], ords[h:h+n]
		// Digit counts, read from keys since they do not depend on the
		// order, turned into each digit's first slot in dst.
		var next [256]int32
		for _, k := range keys {
			next[byte((uint64(k)^sign)>>s)]++
		}
		var sum int32
		for d, c := range &next {
			next[d] = sum
			sum += c
		}
		if srcO == nil {
			for i, k := range srcK {
				d := byte((uint64(k) ^ sign) >> s)
				dstK[next[d]], dstO[next[d]] = k, int32(i)
				next[d]++
			}
		} else {
			for i, k := range srcK {
				d := byte((uint64(k) ^ sign) >> s)
				dstK[next[d]], dstO[next[d]] = k, srcO[i]
				next[d]++
			}
		}
		srcK, srcO = dstK, dstO
	}
	return srcO, srcK
}

// candidates returns the ordinals of the step-j candidates compatible
// with the bound partial (ge.sel[:j]), charging one work unit per
// candidate examined. The returned slice is valid until the next
// candidates call at the same depth.
func (ge *groupEval) candidates(j int, ctx *mr.ReduceContext) []int32 {
	st := &ge.je.steps[j]
	si := &ge.idx[j]
	if !si.built {
		ge.buildStep(j)
	}
	if st.empty() {
		return si.all
	}
	// Probe-side values, computed once per partial into the step's
	// reusable buffers.
	eqPK, rngPK, nePK, genPV := si.pkEq, si.pkRng, si.pkNe, si.pvGen
	ge.fillProbeKeys(st.eq, eqPK)
	ge.fillProbeKeys(st.rng, rngPK)
	ge.fillProbeKeys(st.ne, nePK)
	for ci := range st.gen {
		bc := &st.gen[ci].bc
		genPV[ci] = ge.groups[bc.lo][ge.sel[bc.lo]][bc.loCol].Add(bc.loOff)
	}
	// verify checks every condition of the step except the skipped
	// ones (already guaranteed by the index probe).
	verify := func(i int32, skipEq0, skipRng bool) bool {
		for ci := range st.eq {
			if ci == 0 && skipEq0 {
				continue
			}
			if si.eqKeys[ci][i] != eqPK[ci] {
				return false
			}
		}
		for ci := range st.rng {
			if skipRng {
				continue
			}
			if !st.rng[ci].evalKeys(rngPK[ci], si.rngKeys[ci][i]) {
				return false
			}
		}
		for ci := range st.ne {
			if si.neKeys[ci][i] == nePK[ci] {
				return false
			}
		}
		for ci := range st.gen {
			if !st.gen[ci].bc.op.Eval(relation.Compare(genPV[ci], si.genVals[ci][i])) {
				return false
			}
		}
		return true
	}
	out := ge.scratch[j][:0]
	switch {
	case si.hash != nil:
		bucket := si.hash[eqPK[0]]
		ctx.AddWork(int64(len(bucket)))
		if len(st.eq) == 1 && len(st.rng) == 0 && len(st.ne) == 0 && len(st.gen) == 0 {
			return bucket // single equality: the bucket is the answer
		}
		for _, i := range bucket {
			if verify(i, true, false) {
				out = append(out, i)
			}
		}
	case si.order != nil:
		// Intersect the subranges of every range condition anchored on
		// the sorted column; the rest verify per candidate. The first
		// searches the whole run, each later one only narrows the
		// window it left.
		a := &st.rng[0]
		lo, hi := keyRange(si.skeys, a.bc.op, rngPK[0])
		folded := true
		for ci := 1; ci < len(st.rng); ci++ {
			c := &st.rng[ci]
			pk := rngPK[ci]
			if !c.hi.sameKey(&a.hi) {
				// Same sorted integer column, different candidate
				// offset — the usual shape of a band predicate
				// (x < c AND x > c-w). The fold stays sound by shifting
				// the probe key instead (exact arithmetic; NULL keys
				// sit at the sentinel in both encodings, and a NULL
				// probe must not shift off it). Float keys are
				// bit-remapped, so an additive shift does not commute
				// with the encoding; dictionary keys have no arithmetic
				// at all but also no distinct offsets (sameKey ignores
				// nothing they can differ by except the dictionary
				// itself, which must match for keys to be comparable).
				if c.mode != predicate.KeyInt || a.mode != predicate.KeyInt || c.bc.hiCol != a.bc.hiCol {
					folded = false
					continue
				}
				if pk != relation.NullSortKey {
					pk += int64(a.bc.hiOff) - int64(c.bc.hiOff)
				}
			}
			lo, hi = narrow(si.skeys, lo, hi, c.bc.op, pk)
		}
		ctx.AddWork(int64(hi - lo))
		if folded && len(st.eq) == 0 && len(st.ne) == 0 && len(st.gen) == 0 {
			return si.order[lo:hi] // anchors cover every condition
		}
		for _, i := range si.order[lo:hi] {
			if verify(i, false, folded) {
				out = append(out, i)
			}
		}
	case si.gorder != nil:
		a := &st.gen[st.genAnchor]
		pv := genPV[st.genAnchor]
		lo, hi := anchorRange(si.gsorted, a.bc.op, pv)
		ctx.AddWork(int64(hi - lo))
		for _, i := range si.gorder[lo:hi] {
			if verify(i, false, false) {
				out = append(out, i)
			}
		}
	default:
		n := int32(len(ge.groups[j]))
		ctx.AddWork(int64(n))
		for i := int32(0); i < n; i++ {
			if verify(i, false, false) {
				out = append(out, i)
			}
		}
	}
	ge.scratch[j] = out
	return out
}

// fillProbeKeys extracts the partial-side normalized key of each fast
// condition for the current selection into dst.
func (ge *groupEval) fillProbeKeys(cs []ccond, dst []int64) {
	for ci := range cs {
		bc := &cs[ci].bc
		dst[ci] = cs[ci].loKey(ge.groups[bc.lo][ge.sel[bc.lo]])
	}
}

// keyRange returns the subrange [lo, hi) of the ascending keys
// satisfying "pk op key" (the condition oriented probe→candidate).
// Only the four range operators reach it: EQ conditions take the hash
// index and NE the key-inequality check. One bound serves all four: the
// first key not below pk for LE and GT, and for LT and GE the first key
// above it, which among integers is the first not below pk+1. Every
// indexed band probe runs the search, so it is written out, with a step
// the compiler turns into a conditional move: where the probe falls is
// as good as random, and sort.Search's mispredicted branch per step was
// a seventh of the band-scan workload's CPU.
func keyRange(keys []int64, op predicate.Op, pk int64) (int, int) {
	n := len(keys)
	bound := n // of a pk above every int64: no key is above it
	if above := op == predicate.LT || op == predicate.GE; !above || pk < math.MaxInt64 {
		if above {
			pk++
		}
		bound = 0
		const sign = 1 << 63 // int64 order as uint64 order
		target := uint64(pk) ^ sign
		for ; n > 1; n -= n / 2 {
			half := n / 2
			_, below := bits.Sub64(uint64(keys[bound+half-1])^sign, target, 0)
			bound += half & -int(below)
		}
		if n == 1 && keys[bound] < pk {
			bound++
		}
	}
	if op == predicate.LT || op == predicate.LE { // pk < key, pk <= key: a suffix
		return bound, len(keys)
	}
	return 0, bound // pk > key, pk >= key: a prefix
}

// narrow intersects the window [lo, hi) of the ascending keys with
// keyRange(keys, op, pk). The condition moves one end of the window
// only — the start for LT and LE, whose range is a suffix, the end for
// GT and GE — so it gallops from the end that stays: it probes 1, 2,
// 4, … keys in while they satisfy the condition, then runs keyRange
// between the last two probes. A band's second bound thus costs about
// log2 of the band's width in the run, not a search of the whole
// window (which cost band_scan 8 % more CPU per query).
func narrow(keys []int64, lo, hi int, op predicate.Op, pk int64) (int, int) {
	step := 1
	if op == predicate.LT || op == predicate.LE {
		b := hi // keys[b:hi] satisfy the condition
		for ; b-step >= lo && op.Eval(cmp.Compare(pk, keys[b-step])); step *= 2 {
			b -= step
		}
		from := max(b-step+1, lo)
		l, _ := keyRange(keys[from:b], op, pk)
		return from + l, hi
	}
	a := lo // keys[lo:a] satisfy the condition
	for ; a+step <= hi && op.Eval(cmp.Compare(pk, keys[a+step-1])); step *= 2 {
		a += step
	}
	_, h := keyRange(keys[a:min(a+step-1, hi)], op, pk)
	return lo, a + h
}

// anchorRange narrows a Compare-sorted candidate value list (each with
// the anchor condition's offset already applied) to the subrange
// satisfying "pv op vals[i]" (op oriented lo→hi). It is the generic-
// path counterpart of keyRange, used when a step's only range handle
// is a non-numeric condition.
func anchorRange(vals []relation.Value, op predicate.Op, pv relation.Value) (int, int) {
	cmpAt := func(i int) int { return relation.Compare(pv, vals[i]) }
	n := len(vals)
	switch op {
	case predicate.LT: // pv < cand: suffix where cand > pv
		return sort.Search(n, func(i int) bool { return cmpAt(i) < 0 }), n
	case predicate.LE:
		return sort.Search(n, func(i int) bool { return cmpAt(i) <= 0 }), n
	case predicate.GT: // pv > cand: prefix where cand < pv
		return 0, sort.Search(n, func(i int) bool { return cmpAt(i) <= 0 })
	case predicate.GE:
		return 0, sort.Search(n, func(i int) bool { return cmpAt(i) < 0 })
	case predicate.EQ:
		lo := sort.Search(n, func(i int) bool { return cmpAt(i) <= 0 })
		hi := sort.Search(n, func(i int) bool { return cmpAt(i) < 0 })
		return lo, hi
	default: // NE is never installed as an anchor
		return 0, n
	}
}
