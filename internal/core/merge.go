package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Merging (§4.2, Fig. 4): when two jobs of T share input relations,
// their outputs combine on the shared relations' row IDs — "such a
// merge operation only has output keys or data IDs involved, therefore
// it can be done very efficiently". The full query result is obtained
// by merging every job output into one relation.

// relationsOfOutput recovers the set of base-relation names whose
// columns appear in a join output (the prefixes of its column names).
func relationsOfOutput(r *relation.Relation) []string {
	seen := map[string]bool{}
	var out []string
	for i := 0; i < r.Schema.Len(); i++ {
		name := r.Schema.Column(i).Name
		if dot := strings.IndexByte(name, '.'); dot > 0 {
			rel := name[:dot]
			if !seen[rel] {
				seen[rel] = true
				out = append(out, rel)
			}
		}
	}
	return out
}

// sharedRelations intersects the base-relation sets of two outputs.
func sharedRelations(a, b *relation.Relation) []string {
	inA := map[string]bool{}
	for _, r := range relationsOfOutput(a) {
		inA[r] = true
	}
	var out []string
	for _, r := range relationsOfOutput(b) {
		if inA[r] {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// MergeOutputs joins two job outputs on the row IDs of their shared
// base relations, producing a relation whose columns are the union
// (right's shared-relation columns are dropped; they duplicate the
// left's). Returns an error when the outputs share no relation — the
// planner's merge ordering guarantees they always do.
func MergeOutputs(name string, left, right *relation.Relation) (*relation.Relation, error) {
	shared := sharedRelations(left, right)
	if len(shared) == 0 {
		return nil, fmt.Errorf("core: merge %s: outputs %s and %s share no relation", name, left.Name, right.Name)
	}
	// Key columns: shared relations' rid columns on both sides.
	var lKey, rKey []int
	for _, rel := range shared {
		li, ok := left.Schema.Lookup(rel + "." + RowIDColumn)
		if !ok {
			return nil, fmt.Errorf("core: merge %s: %s lacks %s.%s", name, left.Name, rel, RowIDColumn)
		}
		ri, ok := right.Schema.Lookup(rel + "." + RowIDColumn)
		if !ok {
			return nil, fmt.Errorf("core: merge %s: %s lacks %s.%s", name, right.Name, rel, RowIDColumn)
		}
		lKey = append(lKey, li)
		rKey = append(rKey, ri)
	}
	// Right columns to keep: those of relations not shared.
	sharedSet := map[string]bool{}
	for _, s := range shared {
		sharedSet[s] = true
	}
	var rKeep []int
	var cols []relation.Column
	cols = append(cols, left.Schema.Columns()...)
	for i := 0; i < right.Schema.Len(); i++ {
		c := right.Schema.Column(i)
		dot := strings.IndexByte(c.Name, '.')
		if dot > 0 && sharedSet[c.Name[:dot]] {
			continue
		}
		rKeep = append(rKeep, i)
		cols = append(cols, c)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("core: merge %s: %w", name, err)
	}
	out := relation.New(name, schema)
	if left.VolumeMultiplier > right.VolumeMultiplier {
		out.VolumeMultiplier = left.VolumeMultiplier
	} else {
		out.VolumeMultiplier = right.VolumeMultiplier
	}
	// Column dictionaries follow their columns: left's in place, then
	// the kept right columns' (see relation.Relation.Dicts).
	{
		dicts := make([]*relation.Dict, 0, schema.Len())
		any := false
		for i := 0; i < left.Schema.Len(); i++ {
			d := left.DictOf(i)
			if d != nil {
				any = true
			}
			dicts = append(dicts, d)
		}
		for _, ri := range rKeep {
			d := right.DictOf(ri)
			if d != nil {
				any = true
			}
			dicts = append(dicts, d)
		}
		if any {
			out.Dicts = dicts
		}
	}

	// Hash join on the composite rid key: right rows indexed by a 64-bit
	// mix of their rids, each bucket chained in ascending row order,
	// collisions settled by comparing the rids.
	k := len(shared)
	lRids, err := ridKeys(name, left, lKey)
	if err != nil {
		return nil, err
	}
	rRids, err := ridKeys(name, right, rKey)
	if err != nil {
		return nil, err
	}
	head := make(map[uint64]int32, len(right.Tuples)) // hash → its first right row + 1
	next := make([]int32, len(right.Tuples))          // right row → the bucket's next row + 1
	for i := len(right.Tuples) - 1; i >= 0; i-- {
		h := mixRids(rRids[i*k : (i+1)*k])
		next[i], head[h] = head[h], int32(i+1)
	}
	// eachMatch visits the matching pairs: left rows in order and, per
	// left row, right rows in order.
	eachMatch := func(visit func(lt, rt relation.Tuple)) {
		for li, lt := range left.Tuples {
			lk := lRids[li*k : (li+1)*k]
			for ri := head[mixRids(lk)]; ri != 0; ri = next[ri-1] {
				if slices.Equal(lk, rRids[int(ri-1)*k:int(ri)*k]) {
					visit(lt, right.Tuples[ri-1])
				}
			}
		}
	}
	// Count first: the rows are carved from one exactly-sized slab.
	matches := 0
	eachMatch(func(_, _ relation.Tuple) { matches++ })
	lw := left.Schema.Len()
	width := lw + len(rKeep)
	slab := make([]relation.Value, matches*width)
	out.Tuples = make([]relation.Tuple, 0, matches)
	eachMatch(func(lt, rt relation.Tuple) {
		row := slab[:width:width]
		slab = slab[width:]
		copy(row, lt)
		for j, c := range rKeep {
			row[lw+j] = rt[c]
		}
		out.Tuples = append(out.Tuples, row)
	})
	return out, nil
}

// ridKeys flattens the rid columns cols of r's rows into one int64 per
// row and column. Row ids come from EnsureRowIDs and are ints; a NULL
// or anything else would join rows that share nothing, so it is an error.
func ridKeys(merge string, r *relation.Relation, cols []int) ([]int64, error) {
	keys := make([]int64, 0, len(r.Tuples)*len(cols))
	for i, t := range r.Tuples {
		for _, c := range cols {
			if t[c].Kind() != relation.KindInt {
				return nil, fmt.Errorf("core: merge %s: %s row %d: rid column %s holds a %s",
					merge, r.Name, i, r.Schema.Column(c).Name, t[c].Kind())
			}
			keys = append(keys, t[c].Int64())
		}
	}
	return keys, nil
}

// mixRids hashes one composite rid key.
func mixRids(rids []int64) (h uint64) {
	for _, r := range rids {
		h = (h ^ uint64(r)) * 0x9e3779b97f4a7c15
	}
	return h
}

// MergeStep records one pair-merge of the tree: the modeled byte
// sizes of its two operands, in selection order. The executor charges
// the measured merge makespan off these steps, and the planner's
// estimate (estimateMergeSteps) walks the same selection policy, so
// estimate and measurement price the same tree instead of the
// plan-order chain they historically disagreed on.
type MergeStep struct {
	LeftBytes, RightBytes int64
}

// mergeOperand is the pair-selection view of one partial result:
// which base relations its columns cover, its cardinality, and its
// modeled bytes. MergeAll builds operands from real relations; the
// planner's merge estimate builds them from candidate estimates, so
// both sides walk the same tree-selection policy (pickMergePair).
type mergeOperand struct {
	rels  map[string]bool
	card  int
	bytes int64
}

// operandOf views a partial result of the given modeled size as a merge operand.
func operandOf(r *relation.Relation, bytes int64) mergeOperand {
	rels := make(map[string]bool)
	for _, n := range relationsOfOutput(r) {
		rels[n] = true
	}
	return mergeOperand{rels: rels, card: r.Cardinality(), bytes: bytes}
}

func sharedCount(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return n
}

// pickMergePair returns the operand pair sharing the most relations
// (ties: smaller combined cardinality first, then first in index
// order), or ok=false when no pair shares a relation.
func pickMergePair(ops []mergeOperand) (bi, bj int, ok bool) {
	bi, bj = -1, -1
	bestShared, bestCard := 0, 0
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			s := sharedCount(ops[i].rels, ops[j].rels)
			if s == 0 {
				continue
			}
			card := ops[i].card + ops[j].card
			if s > bestShared || (s == bestShared && (bi < 0 || card < bestCard)) {
				bi, bj, bestShared, bestCard = i, j, s, card
			}
		}
	}
	return bi, bj, bi >= 0
}

// MergeAll combines every job output into the final query result,
// repeatedly merging the pair of partial results sharing the most
// relations (pickMergePair). Section 3.2's connectivity argument
// guarantees a sharing pair always exists for a sufficient T over a
// connected join graph. The returned steps record the operand sizes
// of every merge actually performed, for tree-true cost accounting:
// a merged node re-enters later steps priced at the sum of its
// constituents — the ID payload it carries forward, per the paper's
// "only output keys or data IDs involved" merge argument — not at its
// materialized width, mirroring estimateMergeSteps' recurrence.
func MergeAll(name string, outputs []*relation.Relation) (*relation.Relation, []MergeStep, error) {
	sizes := make([]int64, len(outputs))
	for i, r := range outputs {
		sizes[i] = r.ModeledSize()
	}
	return mergeAll(name, outputs, sizes, nil)
}

// mergeAll is MergeAll given each output's ModeledSize — the executor
// has it from the job's metrics — and a tracing shard: each executed
// pair-merge records a "merge-step" span carrying operand names and
// sizes. The executor passes its own shard; the exported MergeAll nil.
func mergeAll(name string, outputs []*relation.Relation, sizes []int64, sh *obs.Shard) (*relation.Relation, []MergeStep, error) {
	if len(outputs) == 0 {
		return nil, nil, fmt.Errorf("core: nothing to merge")
	}
	work := append([]*relation.Relation(nil), outputs...)
	ops := make([]mergeOperand, len(work))
	for i, r := range work {
		ops[i] = operandOf(r, sizes[i])
	}
	var steps []MergeStep
	for len(work) > 1 {
		bi, bj, ok := pickMergePair(ops)
		if !ok {
			return nil, steps, fmt.Errorf("core: merge stalled; no pair of outputs shares a relation")
		}
		stepName := name
		if len(work) > 2 {
			stepName = fmt.Sprintf("%s~m%d", name, len(steps))
		}
		steps = append(steps, MergeStep{LeftBytes: ops[bi].bytes, RightBytes: ops[bj].bytes})
		sp := sh.Start("merge-step",
			obs.A("left", work[bi].Name), obs.A("right", work[bj].Name),
			obs.A("leftBytes", ops[bi].bytes), obs.A("rightBytes", ops[bj].bytes))
		merged, err := MergeOutputs(stepName, work[bi], work[bj])
		if err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, steps, err
		}
		sp.End(obs.A("outTuples", merged.Cardinality()))
		mergedOp := operandOf(merged, ops[bi].bytes+ops[bj].bytes)
		// Remove j first (j > i), then i; append merged.
		work = append(work[:bj], work[bj+1:]...)
		work = append(work[:bi], work[bi+1:]...)
		work = append(work, merged)
		ops = append(ops[:bj], ops[bj+1:]...)
		ops = append(ops[:bi], ops[bi+1:]...)
		ops = append(ops, mergedOp)
	}
	work[0].Name = name
	return work[0], steps, nil
}

// estimateMergeSteps predicts MergeAll's tree on estimated operands:
// the same pair selection, with the merged operand approximated as the
// relation-set union carrying the summed bytes and the smaller
// cardinality (an ID-keyed merge keeps at most the matching rows of
// either side). Stops early if no pair shares a relation — execution
// would fail there too.
func estimateMergeSteps(ops []mergeOperand) []MergeStep {
	ops = append([]mergeOperand(nil), ops...)
	var steps []MergeStep
	for len(ops) > 1 {
		bi, bj, ok := pickMergePair(ops)
		if !ok {
			return steps
		}
		l, r := ops[bi], ops[bj]
		steps = append(steps, MergeStep{LeftBytes: l.bytes, RightBytes: r.bytes})
		union := make(map[string]bool, len(l.rels)+len(r.rels))
		for k := range l.rels {
			union[k] = true
		}
		for k := range r.rels {
			union[k] = true
		}
		card := l.card
		if r.card < card {
			card = r.card
		}
		merged := mergeOperand{rels: union, card: card, bytes: l.bytes + r.bytes}
		ops = append(ops[:bj], ops[bj+1:]...)
		ops = append(ops[:bi], ops[bi+1:]...)
		ops = append(ops, merged)
	}
	return steps
}
