package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/mr"
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
	j, err := newRidJoin(name, left, right)
	if err != nil {
		return nil, err
	}
	out := j.output(name, j.schema, j.dicts)
	// Count first: the rows are carved from one exactly-sized slab.
	all := len(left.Tuples)
	matches := 0
	j.eachMatch(0, all, func(_, _ relation.Tuple) { matches++ })
	lw := left.Schema.Len()
	width := j.schema.Len()
	slab := make([]relation.Value, matches*width)
	out.Tuples = make([]relation.Tuple, 0, matches)
	j.eachMatch(0, all, func(lt, rt relation.Tuple) {
		row := slab[:width:width]
		slab = slab[width:]
		copy(row, lt)
		for i, c := range j.rKeep {
			row[lw+i] = rt[c]
		}
		out.Tuples = append(out.Tuples, row)
	})
	return out, nil
}

// ridJoin is the rid hash join of two partial results, the one index
// and probe of both kinds of merge step: MergeOutputs and the
// executor's final gatherMerge. Right rows are indexed by a 64-bit mix
// of their shared relations' rids, each bucket chained in ascending
// row order, collisions settled by comparing the rids.
type ridJoin struct {
	left, right *relation.Relation
	// schema is left's columns, then right's kept columns rKeep (those
	// of relations not shared); dicts are its columns' dictionaries,
	// nil when none has one (see relation.Relation.Dicts).
	schema *relation.Schema
	dicts  []*relation.Dict
	rKeep  []int
	// k rids per row, flattened: left row i's are lRids[i*k:(i+1)*k].
	k            int
	lRids, rRids []int64
	head         map[uint64]int32 // hash → its first right row + 1
	next         []int32          // right row → the bucket's next row + 1
}

func newRidJoin(name string, left, right *relation.Relation) (*ridJoin, error) {
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
	j := &ridJoin{left: left, right: right, k: len(shared)}
	// Right columns to keep: those of relations not shared.
	sharedSet := map[string]bool{}
	for _, s := range shared {
		sharedSet[s] = true
	}
	cols := left.Schema.Columns()
	for i := 0; i < right.Schema.Len(); i++ {
		c := right.Schema.Column(i)
		dot := strings.IndexByte(c.Name, '.')
		if dot > 0 && sharedSet[c.Name[:dot]] {
			continue
		}
		j.rKeep = append(j.rKeep, i)
		cols = append(cols, c)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("core: merge %s: %w", name, err)
	}
	j.schema = schema
	// Column dictionaries follow their columns: left's in place, then
	// the kept right columns'.
	dicts := make([]*relation.Dict, 0, schema.Len())
	for i := 0; i < left.Schema.Len(); i++ {
		dicts = append(dicts, left.DictOf(i))
	}
	for _, ri := range j.rKeep {
		dicts = append(dicts, right.DictOf(ri))
	}
	if slices.ContainsFunc(dicts, func(d *relation.Dict) bool { return d != nil }) {
		j.dicts = dicts
	}

	if j.lRids, err = ridKeys(name, left, lKey); err != nil {
		return nil, err
	}
	if j.rRids, err = ridKeys(name, right, rKey); err != nil {
		return nil, err
	}
	// Keyed on one relation, the right side has at most its largest
	// rid + 1 distinct keys, as rids number base rows: the index is
	// sized for the fewer.
	k, hint := j.k, len(right.Tuples)
	if k == 1 && hint > 0 {
		if m := slices.Max(j.rRids); m >= 0 && m < int64(hint) {
			hint = int(m) + 1
		}
	}
	j.head = make(map[uint64]int32, hint)
	j.next = make([]int32, len(right.Tuples))
	for i := len(right.Tuples) - 1; i >= 0; i-- {
		h := mixRids(j.rRids[i*k : (i+1)*k])
		j.next[i], j.head[h] = j.head[h], int32(i+1)
	}
	return j, nil
}

// output is an empty merged relation of the given columns, as large
// per row as the larger of its operands.
func (j *ridJoin) output(name string, schema *relation.Schema, dicts []*relation.Dict) *relation.Relation {
	out := relation.New(name, schema)
	out.VolumeMultiplier = max(j.left.VolumeMultiplier, j.right.VolumeMultiplier)
	out.Dicts = dicts
	return out
}

// eachMatch visits the matching pairs of left rows lo to hi: left rows
// in order and, per left row, right rows in order.
func (j *ridJoin) eachMatch(lo, hi int, visit func(lt, rt relation.Tuple)) {
	k := j.k
	for li := lo; li < hi; li++ {
		lk := j.lRids[li*k : (li+1)*k]
		for ri := j.head[mixRids(lk)]; ri != 0; ri = j.next[ri-1] {
			if slices.Equal(lk, j.rRids[int(ri-1)*k:int(ri)*k]) {
				visit(j.left.Tuples[li], j.right.Tuples[ri-1])
			}
		}
	}
}

// ridGather resolves the columns of a rid-only partial result to the
// base rows they name. A column "P.rid" holds rids of the base relation
// named by P's last dot-separated segment (P is that name, or a path of
// job names ending in it), and stands for that relation's columns
// prefixed "P." — the columns the job output it came from held in its
// place. schema and dicts are those full-width columns, in order.
type ridGather struct {
	bases  []*relation.Relation // by rid column
	schema *relation.Schema
	dicts  []*relation.Dict
}

func newRidGather(db *DB, rids *relation.Schema) (*ridGather, error) {
	g := &ridGather{bases: make([]*relation.Relation, rids.Len())}
	prefixes := make([]string, len(g.bases))
	width := 0
	for i := range g.bases {
		c := rids.Column(i)
		prefix, ok := strings.CutSuffix(c.Name, "."+RowIDColumn)
		if !ok || c.Kind != relation.KindInt {
			return nil, fmt.Errorf("core: column %s of a rid-only result is not a rid column", c.Name)
		}
		base, err := db.Relation(prefix[strings.LastIndexByte(prefix, '.')+1:])
		if err != nil {
			return nil, fmt.Errorf("core: rid column %s: %w", c.Name, err)
		}
		g.bases[i], prefixes[i] = base, prefix
		width += base.Schema.Len()
	}
	cols := make([]relation.Column, 0, width)
	g.dicts = make([]*relation.Dict, 0, width)
	for i, base := range g.bases {
		for b := 0; b < base.Schema.Len(); b++ {
			bc := base.Schema.Column(b)
			cols = append(cols, relation.Column{Name: prefixes[i] + "." + bc.Name, Kind: bc.Kind})
			g.dicts = append(g.dicts, base.DictOf(b))
		}
	}
	if !slices.ContainsFunc(g.dicts, func(d *relation.Dict) bool { return d != nil }) {
		g.dicts = nil
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	g.schema = schema
	return g, nil
}

// checkRids reports the first value of r's columns cols that is not a
// row index of its base relation, bases[at], bases[at+1], … in cols'
// order. EnsureRowIDs makes a base relation's rid its row index, so
// every rid a job read from it passes.
func (g *ridGather) checkRids(merge string, r *relation.Relation, cols []int, at int) error {
	for i, t := range r.Tuples {
		for n, c := range cols {
			v, base := t[c], g.bases[at+n]
			if v.Kind() != relation.KindInt || v.Int64() < 0 || v.Int64() >= int64(len(base.Tuples)) {
				return fmt.Errorf("core: merge %s: %s row %d: %s %v is not a row of %s",
					merge, r.Name, i, r.Schema.Column(c).Name, v, base.Name)
			}
		}
	}
	return nil
}

// projectRids marks a job whose output feeds the rid-merge: its
// reducers keep only the rid columns of its rows (mr.Job.Project), and
// the merge's final step gathers the result rows from the base
// relations. It fails, and leaves the job as it was, when the gather
// would not rebuild the job's rows column for column.
func projectRids(job *mr.Job, db *DB) error {
	var project []int
	var cols []relation.Column
	for i := 0; i < job.OutputSchema.Len(); i++ {
		if c := job.OutputSchema.Column(i); strings.HasSuffix(c.Name, "."+RowIDColumn) {
			project = append(project, i)
			cols = append(cols, c)
		}
	}
	rids, err := relation.NewSchema(cols...)
	if err != nil {
		return err
	}
	g, err := newRidGather(db, rids)
	if err != nil {
		return fmt.Errorf("core: job %s feeds the rid-merge: %w", job.Name, err)
	}
	if !g.schema.Equal(job.OutputSchema) {
		return fmt.Errorf("core: job %s feeds the rid-merge, but its rows are not its base relations' rows side by side", job.Name)
	}
	job.Project, job.OutputSchema, job.OutputDicts = project, rids, nil
	return nil
}

// gatherShardRows is the fewest left rows worth a goroutine of their
// own: each may match many right rows, and each match is a gathered,
// hashed and possibly copied result row.
const gatherShardRows = 64

// gatherMerge is the rid-merge's final step over rid-only partial
// results (projectRids): MergeOutputs' join of left and right, fused
// with building the result's rows from the base rows their rids name.
// It returns the result holding its first keep rows (every row when
// keep < 0), in MergeOutputs' order, with the whole result's row count
// and the wrapping sum of its rows' relation.RowHash. The work runs in
// GOMAXPROCS shards of left rows: each shard counts its matches, one
// exactly sized slab is carved for the kept rows, and each shard then
// gathers every row's parts, hashes the row and copies it if kept.
func gatherMerge(name string, left, right *relation.Relation, db *DB, keep int) (out *relation.Relation, rows int, rowSum uint64, err error) {
	j, err := newRidJoin(name, left, right)
	if err != nil {
		return nil, 0, 0, err
	}
	g, err := newRidGather(db, j.schema)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: merge %s: %w", name, err)
	}
	lw := left.Schema.Len()
	if err := g.checkRids(name, left, seq(lw), 0); err != nil {
		return nil, 0, 0, err
	}
	if err := g.checkRids(name, right, j.rKeep, lw); err != nil {
		return nil, 0, 0, err
	}
	out = j.output(name, g.schema, g.dicts)

	n := len(left.Tuples)
	shards := max(1, min(runtime.GOMAXPROCS(0), n/gatherShardRows))
	span := func(s int) (lo, hi int) { return s * n / shards, (s + 1) * n / shards }
	// first[s] is shard s's first row in the result; first[shards] the
	// row count.
	first := make([]int, shards+1)
	inShards(shards, func(s int) {
		lo, hi := span(s)
		matches := 0
		j.eachMatch(lo, hi, func(_, _ relation.Tuple) { matches++ })
		first[s+1] = matches
	})
	for s := range shards {
		first[s+1] += first[s]
	}
	rows = first[shards]
	kept := rows
	if keep >= 0 {
		kept = min(rows, keep)
	}
	width := g.schema.Len()
	slab := make([]relation.Value, kept*width)
	out.Tuples = make([]relation.Tuple, kept)
	sums := make([]uint64, shards)
	inShards(shards, func(s int) {
		lo, hi := span(s)
		pos, parts := first[s], make([]relation.Tuple, len(g.bases))
		// A left row's matches share its base rows as their leading
		// parts: the hasher folds them once per left row, and only the
		// right side's parts per match.
		var h relation.RowHasher
		var sum uint64
		j.eachMatch(lo, hi, func(lt, rt relation.Tuple) {
			for c, v := range lt {
				parts[c] = g.bases[c].Tuples[v.Int64()]
			}
			for i, c := range j.rKeep {
				parts[lw+i] = g.bases[lw+i].Tuples[rt[c].Int64()]
			}
			sum += h.Hash(parts...)
			if pos < kept {
				row := slab[pos*width : pos*width : (pos+1)*width]
				for _, p := range parts {
					row = append(row, p...)
				}
				out.Tuples[pos] = row
			}
			pos++
		})
		sums[s] = sum
	})
	for _, sum := range sums {
		rowSum += sum
	}
	return out, rows, rowSum, nil
}

// inShards runs f(0) … f(shards-1), each on a goroutine of its own
// unless there is only one.
func inShards(shards int, f func(s int)) {
	if shards == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(s)
		}()
	}
	wg.Wait()
}

// seq is 0, 1, …, n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
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
// modeled bytes. mergeTree builds operands from real relations; the
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

// mergeStep is MergeOutputs as a mergeTree step.
func mergeStep(name string, left, right *relation.Relation) (*relation.Relation, int, error) {
	out, err := MergeOutputs(name, left, right)
	if err != nil {
		return nil, 0, err
	}
	return out, out.Cardinality(), nil
}

// mergeTree combines every job output into the final query result,
// repeatedly merging the pair of partial results sharing the most
// relations (pickMergePair). Section 3.2's connectivity argument
// guarantees a sharing pair always exists for a sufficient T over a
// connected join graph. Every step but the last is MergeOutputs, and
// the last is last, which returns the result and its row count — more
// than the result's own rows when it keeps only the first. With a
// single output there is no step, and the count is that output's
// cardinality.
//
// The returned steps record the operand sizes (sizes, for the
// outputs) of every merge actually performed, for tree-true cost
// accounting: a merged node re-enters later steps priced at the sum of
// its constituents — the ID payload it carries forward, per the
// paper's "only output keys or data IDs involved" merge argument — not
// at its materialized width, mirroring estimateMergeSteps' recurrence.
// Each step records a "merge-step" span on sh carrying its operands'
// names and sizes.
func mergeTree(name string, outputs []*relation.Relation, sizes []int64, sh *obs.Shard,
	last func(name string, left, right *relation.Relation) (*relation.Relation, int, error)) (*relation.Relation, int, []MergeStep, error) {
	if len(outputs) == 0 {
		return nil, 0, nil, fmt.Errorf("core: nothing to merge")
	}
	work := append([]*relation.Relation(nil), outputs...)
	ops := make([]mergeOperand, len(work))
	for i, r := range work {
		ops[i] = operandOf(r, sizes[i])
	}
	rows := work[0].Cardinality()
	var steps []MergeStep
	for len(work) > 1 {
		bi, bj, ok := pickMergePair(ops)
		if !ok {
			return nil, 0, steps, fmt.Errorf("core: merge stalled; no pair of outputs shares a relation")
		}
		stepName, step := name, last
		if len(work) > 2 {
			stepName, step = fmt.Sprintf("%s~m%d", name, len(steps)), mergeStep
		}
		steps = append(steps, MergeStep{LeftBytes: ops[bi].bytes, RightBytes: ops[bj].bytes})
		sp := sh.Start("merge-step",
			obs.A("left", work[bi].Name), obs.A("right", work[bj].Name),
			obs.A("leftBytes", ops[bi].bytes), obs.A("rightBytes", ops[bj].bytes))
		merged, n, err := step(stepName, work[bi], work[bj])
		if err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, 0, steps, err
		}
		sp.End(obs.A("outTuples", n))
		rows = n
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
	return work[0], rows, steps, nil
}

// estimateMergeSteps predicts mergeTree's tree on estimated operands:
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
