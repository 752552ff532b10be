package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

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
//   - every condition gets a normalized sort key per candidate tuple —
//     an int64 extracted once (relation.SortKeyInt/SortKeyFloat, mode
//     from predicate.CondKeyMode, decided by bindConditions) — so the
//     inner loop compares raw integers instead of shifting and
//     comparing Values (Value.Add, relation.Compare) per candidate;
//   - string conditions ride the same indexes through a side's
//     order-preserving dictionary (predicate.KeyDict): interned values
//     key on their embedded codes, the other side probes the reference
//     dictionary (see keycolumns.go and relation.Dict);
//   - per step, candidate keys are extracted once per distinct
//     (column, offset, mode, dict) recipe into contiguous []int64
//     columns shared by all conditions reading them (the struct-of-
//     arrays cache of keycolumns.go);
//   - an equality condition indexes the step's candidates in a flat
//     hash index keyed on the normalized key (hashIndex): a probe
//     examines only the matching bucket;
//   - range conditions keep the candidates key-sorted (a stable radix
//     sort for all but short runs); all range conditions anchored on
//     the same column (and offset) intersect into a single subrange:
//     the first binary-searches the run, each later one gallops from
//     the end of the window it leaves fixed, so a band predicate
//     (lo < x AND x < hi) costs one search plus about log2 of the
//     band's width, not a scan;
//   - the remaining conditions compare keys per candidate the index
//     returns, or per candidate of the step when it has no index.
//
// A groupEval and every buffer above are reused: the reducer hands its
// groupEval back to the job's joinEval after the group, and the next
// group rebuilds its indexes in the same arrays, so a run's reducers
// allocate for their largest groups, not for every group.
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

// ccond is one compiled condition: a boundCond and the two
// key-extraction recipes (probe side lo, candidate side hi). hiSlot
// indexes the candidate extractor within its step's shared key-column
// cache.
type ccond struct {
	bc     boundCond
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
	eq  []ccond // equalities: hash index on eq[0]
	rng []ccond // ranges: sorted run on rng[0]'s column
	ne  []ccond // inequalities (<>): key comparison only
	// exts are the step's deduplicated candidate-side key extractors;
	// ccond.hiSlot indexes into them (and into the per-group key
	// columns built from them).
	exts []keyExtractor
}

func (st *joinStep) empty() bool {
	return len(st.eq) == 0 && len(st.rng) == 0 && len(st.ne) == 0
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
// ordinal, fixed once compiled and shared by all reduce calls of the
// job, plus the groupEvals those calls have finished with. A joinEval
// is built with its job, so the idle groupEvals, each with the buffers
// its largest group grew, live as long as the job and no longer.
type joinEval struct {
	m     int
	steps []joinStep

	mu   sync.Mutex
	idle []*groupEval
}

// newJoinEval compiles the bound conditions of a job over its ordered
// relations, each with the key mode bindConditions gave it. A
// dictionary-keyed condition keys both sides against one side's
// dictionary, which covers that whole side and so is a sound reference
// for both.
func newJoinEval(rels []*relation.Relation, bound []boundCond) *joinEval {
	je := &joinEval{m: len(rels), steps: make([]joinStep, len(rels))}
	for _, bc := range bound {
		st := &je.steps[bc.hi]
		c := ccond{
			bc: bc,
			lo: keyExtractor{mode: bc.mode, col: bc.loCol, off: bc.loOff},
			hi: keyExtractor{mode: bc.mode, col: bc.hiCol, off: bc.hiOff},
		}
		if bc.mode == predicate.KeyDict {
			// The candidate side's dictionary is the preferred
			// reference: it makes every candidate key a direct code read.
			loDict, hiDict := rels[bc.lo].DictOf(bc.loCol), rels[bc.hi].DictOf(bc.hiCol)
			ref := hiDict
			if ref == nil {
				ref = loDict
			}
			c.lo.dict, c.lo.direct = ref, loDict == ref
			c.hi.dict, c.hi.direct = ref, hiDict == ref
		}
		c.hiSlot = st.slotFor(c.hi)
		switch {
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

// equiSides returns, for a two-relation job, each side's extractors of
// its equality conditions in condition order: what that side shuffles
// by (shuffleKey).
func (je *joinEval) equiSides() [2][]keyExtractor {
	var sides [2][]keyExtractor
	for _, c := range je.steps[1].eq {
		sides[0] = append(sides[0], c.lo)
		sides[1] = append(sides[1], c.hi)
	}
	return sides
}

// A PairMatcher is the nested-loop join of two relations under
// conditions that each join one with the other, evaluated with the same
// binding, key modes and key comparisons as every planned job. The
// baselines' cascade steps join through it, and shuffle by the keys it
// gives each side; concurrent reducers share one.
type PairMatcher struct {
	conds []ccond
	sides [2][]keyExtractor
}

// NewPairMatcher compiles conds over (left, right), refusing a
// condition no key mode evaluates as bindConditions does.
func NewPairMatcher(left, right *relation.Relation, conds predicate.Conjunction) (*PairMatcher, error) {
	rels := []*relation.Relation{left, right}
	bound, err := bindConditions(conds, rels)
	if err != nil {
		return nil, err
	}
	je := newJoinEval(rels, bound)
	st := &je.steps[1]
	return &PairMatcher{conds: slices.Concat(st.eq, st.rng, st.ne), sides: je.equiSides()}, nil
}

// Keyed reports whether the conditions include an equality, on whose
// keys the two sides can shuffle.
func (m *PairMatcher) Keyed() bool { return len(m.sides[0]) > 0 }

// ShuffleKey is the key a tuple of the given side (0 left, 1 right)
// shuffles by: the hash-equi job's shuffle key over the equality
// conditions, so a pair that satisfies them meets on one key.
func (m *PairMatcher) ShuffleKey(side int, t relation.Tuple) uint64 {
	return shuffleKey(m.sides[side], t)
}

// Join calls emit(l, r) for every pair of ls×rs, l-major, that
// satisfies every condition. It tests every pair — no index prunes or
// reorders them — but extracts each tuple's keys once, not once per
// pair.
func (m *PairMatcher) Join(ls, rs []relation.Tuple, emit func(l, r relation.Tuple)) {
	n := len(m.conds)
	rk := make([]int64, len(rs)*n)
	for j, r := range rs {
		for ci := range m.conds {
			rk[j*n+ci] = m.conds[ci].hiKey(r)
		}
	}
	lk := make([]int64, n)
	for _, l := range ls {
		for ci := range m.conds {
			lk[ci] = m.conds[ci].loKey(l)
		}
	pairs:
		for j, r := range rs {
			for ci := range m.conds {
				if !m.conds[ci].evalKeys(lk[ci], rk[j*n+ci]) {
					continue pairs
				}
			}
			emit(l, r)
		}
	}
}

// stepIndex is the lazily built per-reduce-group index of one step.
// Its arrays outlive the group: the next group's build overwrites them.
type stepIndex struct {
	built bool
	// cols holds the contiguous key column of each step extractor slot
	// (see keycolumns.go).
	cols keyColumns
	// Per-condition views into cols, aligned with the step's cond
	// lists — conditions sharing a slot alias the same column.
	eqKeys  [][]int64
	rngKeys [][]int64
	neKeys  [][]int64
	// ident's prefix of the group's size is the candidate list of a
	// condition-free step: every candidate, in order.
	ident []int32
	// hash indexes the candidates on eqKeys[0] when hashed.
	hashed bool
	hash   hashIndex
	// Sorted run on rngKeys[0], when order is non-nil: order is the
	// stable key-sorted candidate permutation, skeys the keys in that
	// order, both cut from run.
	order []int32
	skeys []int64
	run   sortBuf
	// Probe-side buffers, reused across probes of this step (safe: the
	// depth-first backtracker probes one partial per depth at a time).
	pkEq, pkRng, pkNe []int64
}

// indexMinSize is the group size below which building a hash table or
// sorted run costs more than linear scans over the extracted keys.
const indexMinSize = 8

// groupEval evaluates one reduce group: the per-relation candidate
// groups plus lazily built step indexes and per-depth scratch buffers.
// The reducers built on it keep their own per-group scratch here too:
// the matched combination's parts, the theta reducer's cell coordinates
// (cells, cut into coords) and the share grid's pin hashes.
type groupEval struct {
	je      *joinEval
	groups  [][]relation.Tuple
	idx     []stepIndex
	scratch [][]int32 // per-depth surviving-candidate buffers
	sel     []int32

	parts  []relation.Tuple
	cells  []uint32
	coords [][]uint32
	hashes []uint64
}

// newGroupEval prepares evaluation over the group's relations, on one of
// the job's idle groupEvals when there is one. Every groups[i] must be
// non-empty (callers return early otherwise). The groupEval is the
// caller's alone until it hands it back with release.
func (je *joinEval) newGroupEval(groups [][]relation.Tuple) *groupEval {
	je.mu.Lock()
	var ge *groupEval
	if n := len(je.idle); n > 0 {
		ge = je.idle[n-1]
		je.idle[n-1] = nil
		je.idle = je.idle[:n-1]
	}
	je.mu.Unlock()
	if ge == nil {
		m := je.m
		ge = &groupEval{
			je:      je,
			idx:     make([]stepIndex, m),
			scratch: make([][]int32, m),
			sel:     make([]int32, m),
			parts:   make([]relation.Tuple, m),
			coords:  make([][]uint32, m),
			hashes:  make([]uint64, m),
		}
		for j := range je.steps {
			st, si := &je.steps[j], &ge.idx[j]
			si.eqKeys = make([][]int64, len(st.eq))
			si.rngKeys = make([][]int64, len(st.rng))
			si.neKeys = make([][]int64, len(st.ne))
			si.pkEq = make([]int64, len(st.eq))
			si.pkRng = make([]int64, len(st.rng))
			si.pkNe = make([]int64, len(st.ne))
		}
	}
	ge.groups = groups
	for j := range ge.idx {
		ge.idx[j].built = false
	}
	return ge
}

// release hands ge back for the job's next group; the caller must not
// use it, or anything its methods returned, afterwards.
func (je *joinEval) release(ge *groupEval) {
	ge.groups = nil // the engine's group buffers are not ours to hold
	je.mu.Lock()
	je.idle = append(je.idle, ge)
	je.mu.Unlock()
}

// run backtracks over the groups and invokes onMatch with the selected
// candidate ordinals (sel[i] indexes groups[i]) for every combination
// satisfying all compiled conditions. sel is reused across calls; the
// callback must not retain it.
func (ge *groupEval) run(ctx *mr.ReduceContext, onMatch func(sel []int32)) {
	ge.extend(0, ctx, onMatch)
}

// extend binds depth j to each of its candidates in turn and recurses.
func (ge *groupEval) extend(j int, ctx *mr.ReduceContext, onMatch func(sel []int32)) {
	if j == ge.je.m {
		onMatch(ge.sel)
		return
	}
	for _, idx := range ge.candidates(j, ctx) {
		ge.sel[j] = idx
		ge.extend(j+1, ctx, onMatch)
	}
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
	si.hashed, si.order, si.skeys = false, nil, nil
	if st.empty() {
		for i := len(si.ident); i < n; i++ {
			si.ident = append(si.ident, int32(i))
		}
		return
	}
	// Materialise each distinct extractor once (keycolumns.go), then
	// alias the per-condition views into the shared columns.
	cols := si.cols.build(st.exts, cands)
	for ci := range st.eq {
		si.eqKeys[ci] = cols[st.eq[ci].hiSlot]
	}
	for ci := range st.rng {
		si.rngKeys[ci] = cols[st.rng[ci].hiSlot]
	}
	for ci := range st.ne {
		si.neKeys[ci] = cols[st.ne[ci].hiSlot]
	}
	if n < indexMinSize {
		return
	}
	switch {
	case len(st.eq) > 0:
		si.hash.build(si.eqKeys[0])
		si.hashed = true
	case len(st.rng) > 0:
		si.order, si.skeys = sortedByKey(si.rngKeys[0], &si.run)
	}
}

// sized returns s resliced to length n, reallocated only when its
// capacity is short; the elements are whatever s held.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// hashIndex buckets a step's candidates by equality key in flat arrays:
// ords holds every candidate ordinal grouped by key, in candidate order
// within a bucket; bucket b has key keys[b] and spans
// ords[start[b]:start[b+1]]; and slots, an open-addressing table of
// twice the group's size rounded up to a power of two, maps a key to
// its bucket. build counts, prefix-sums and fills, reusing every array,
// and clears only the slots the group uses, so a key of an earlier,
// larger group cannot be found.
type hashIndex struct {
	slots []int32 // bucket+1; 0 marks an empty slot
	shift uint
	keys  []int64
	start []int32
	ords  []int32
	bid   []int32 // each candidate's bucket, for the fill
}

func (h *hashIndex) build(col []int64) {
	n := len(col)
	lg := bits.Len(uint(2*n - 1))
	h.slots = sized(h.slots, 1<<lg)
	clear(h.slots)
	h.shift = uint(64 - lg)
	h.keys, h.start = h.keys[:0], h.start[:0]
	h.bid = sized(h.bid, n)
	for i, k := range col {
		s := h.slot(k)
		b := h.slots[s] - 1
		if b < 0 {
			b = int32(len(h.keys))
			h.slots[s] = b + 1
			h.keys = append(h.keys, k)
			h.start = append(h.start, 0)
		}
		h.start[b]++
		h.bid[i] = b
	}
	// Counts to bucket ends, then a backward fill moves each end down
	// to its bucket's start while keeping candidate order.
	var end int32
	for b, c := range h.start {
		end += c
		h.start[b] = end
	}
	h.start = append(h.start, end)
	h.ords = sized(h.ords, n)
	for i := n - 1; i >= 0; i-- {
		b := h.bid[i]
		h.start[b]--
		h.ords[h.start[b]] = int32(i)
	}
}

// slot returns the slot holding key k, or the empty slot it would take.
func (h *hashIndex) slot(k int64) int {
	mask := len(h.slots) - 1
	for s := int(uint64(k) * 0x9e3779b97f4a7c15 >> h.shift); ; s = (s + 1) & mask {
		if b := h.slots[s]; b == 0 || h.keys[b-1] == k {
			return s
		}
	}
}

// bucket returns the candidates whose key is k, in candidate order.
func (h *hashIndex) bucket(k int64) []int32 {
	b := h.slots[h.slot(k)] - 1
	if b < 0 {
		return nil
	}
	return h.ords[h.start[b]:h.start[b+1]]
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
// produce the same stable permutation. Both results are cut from buf
// and valid until its next use.
func sortedByKey(keys []int64, buf *sortBuf) (order []int32, sorted []int64) {
	n := len(keys)
	if n < radixMinSize {
		ks := sized(buf.pairs, n)
		buf.pairs = ks
		for i, k := range keys {
			ks[i] = keyOrd{k, int32(i)}
		}
		slices.SortFunc(ks, func(a, b keyOrd) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.ord, b.ord)
		})
		order, sorted = sized(buf.ords, n), sized(buf.keys, n)
		buf.ords, buf.keys = order, sorted
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
	ords, ks := sized(buf.ords, 2*n), sized(buf.keys, 2*n)
	buf.ords, buf.keys = ords, ks
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

// sortBuf is sortedByKey's working memory, kept from group to group:
// the comparison path's (key, ordinal) pairs, and the ordinals and keys
// both paths return — the radix path's as two halves it alternates
// between.
type sortBuf struct {
	pairs []keyOrd
	ords  []int32
	keys  []int64
}

type keyOrd struct {
	key int64
	ord int32
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
		return si.ident[:len(ge.groups[j])]
	}
	// Probe-side values, computed once per partial into the step's
	// reusable buffers.
	eqPK, rngPK, nePK := si.pkEq, si.pkRng, si.pkNe
	ge.fillProbeKeys(st.eq, eqPK)
	ge.fillProbeKeys(st.rng, rngPK)
	ge.fillProbeKeys(st.ne, nePK)
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
		return true
	}
	out := ge.scratch[j][:0]
	switch {
	case si.hashed:
		bucket := si.hash.bucket(eqPK[0])
		ctx.AddWork(int64(len(bucket)))
		if len(st.eq) == 1 && len(st.rng) == 0 && len(st.ne) == 0 {
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
				if c.bc.mode != predicate.KeyInt || a.bc.mode != predicate.KeyInt || c.bc.hiCol != a.bc.hiCol {
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
		if folded && len(st.eq) == 0 && len(st.ne) == 0 {
			return si.order[lo:hi] // anchors cover every condition
		}
		for _, i := range si.order[lo:hi] {
			if verify(i, false, folded) {
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

// fillProbeKeys extracts the partial-side normalized key of each
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
