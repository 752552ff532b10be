// Package baselines implements the competitor systems of the paper's
// evaluation (§6): HIVE- and PIG-style pairwise-join cascades and a
// YSMART-style correlation-aware variant [23]. A cascade step with no
// equality condition partitions like the 1-Bucket-Theta join of Okcan
// & Riedewald [25].
//
// Every baseline executes on the same MapReduce simulator as the
// paper's method, so comparisons reflect plan structure — number of
// jobs, intermediate materialisation, shuffle volume, reducer counts —
// rather than implementation folklore. All three join the relations in
// the order the query writes them and key each equi step on every
// equality condition it has; behaviour that cannot be reproduced
// structurally (Pig's serialisation overhead, YSmart's merged-job I/O
// savings) is an explicit, documented Strategy field.
//
// A cascade binds, routes and evaluates its conditions with the paper's
// method's own code: core.CheckConditions refuses the query before any
// step runs when a condition has no key mode, an equi step shuffles each
// side on the int64 keys of its equalities (core.PairMatcher.ShuffleKey,
// the hash-equi job's key), and every step's nested-loop reducer
// compares the keys core.PairMatcher extracts. relation.Compare is left
// to the oracle (core.Naive) and internal/predicate's sampler.
package baselines

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// Strategy selects and parameterises a cascade baseline.
type Strategy struct {
	Name string

	// SharedScan charges repeated scans of the same physical base
	// table only once (YSmart's input correlation, important for the
	// self-join mobile queries).
	SharedScan bool

	// TransitDiscount ∈ [0,1) removes that fraction of the
	// intermediate write+read cost between consecutive steps (YSmart's
	// common-MapReduce merging of correlated jobs).
	TransitDiscount float64

	// MaterializeFactor inflates every step's simulated time (Pig's
	// heavier tuple serialisation; 1.0 = none).
	MaterializeFactor float64
}

// Hive returns the HIVE-style strategy. Hive of the paper's vintage
// (0.20-era, pre-CBO) joins tables in the order the query writes them,
// with composite equi keys and as many reducers as the cluster allows.
func Hive() Strategy {
	return Strategy{Name: "Hive", MaterializeFactor: 1.0}
}

// Pig returns the PIG-style strategy: Hive's written-order cascade,
// composite equi keys included, with Pig's heavier bag serialisation
// between stages.
func Pig() Strategy {
	return Strategy{Name: "Pig", MaterializeFactor: 1.25}
}

// YSmart returns the YSMART-style strategy [23]: Hive's plan plus
// input-correlation shared scans and transit-correlation discounts.
func YSmart() Strategy {
	return Strategy{
		Name: "YSmart", SharedScan: true, TransitDiscount: 0.5, MaterializeFactor: 1.0,
	}
}

// StepMetrics records one cascade stage.
type StepMetrics struct {
	Name     string
	Relation string // base relation joined in at this step
	SimTime  float64
	Metrics  mr.Metrics
}

// Result is a completed baseline execution.
type Result struct {
	Strategy  string
	Output    *relation.Relation
	TotalTime float64
	Steps     []StepMetrics
	// ShuffleBytes totals network volume across all stages.
	ShuffleBytes int64
}

// Run evaluates the query with the given cascade strategy.
//
// requestedReducers is the reducer count every stage asks for —
// "Hive always try to employ as many Reduce tasks as possible"
// (§6.3.2), i.e. the full cluster's configured capacity, NOT the
// currently available k_P: when the experiment restricts processing
// units below the request (Fig. 10/13's kP ≤ 64 vs the 96-task
// request), the reduce phase runs in multiple waves — the k_P
// obliviousness the paper's scheduler exploits.
//
// A condition no key mode evaluates — a string compared with a number —
// fails Run before its first step, with core.CheckConditions' error
// naming both columns.
func Run(ctx context.Context, st Strategy, cfg mr.Config, q *query.Query, db *core.DB, requestedReducers int) (*Result, error) {
	if err := core.CheckConditions(q, db); err != nil {
		return nil, err
	}
	order, err := joinOrder(q)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: st.Name}
	scanned := map[string]bool{}
	// Discounts price a skipped sequential read plus write per byte.
	rates := mr.PaperRates()
	readWrite := 1/rates.ReadBps + 1/rates.WriteBps

	var current *relation.Relation
	joined := map[string]bool{}
	var prevOutBytes int64
	var prevKeySig map[string]bool

	for step, relName := range order {
		right, err := db.Relation(relName)
		if err != nil {
			return nil, err
		}
		if step == 0 {
			current = prefixBase(right)
			joined[relName] = true
			scanned[db.BaseName(relName)] = true
			continue
		}
		// joinOrder put relName next because a condition links it.
		conds := condsBetween(q, joined, relName)
		jobName := fmt.Sprintf("%s-%s-s%d", st.Name, q.Name, step)
		job, err := buildStepJob(jobName, current, prefixBase(right), conds, requestedReducers)
		if err != nil {
			return nil, err
		}
		run, err := mr.Run(ctx, cfg, job)
		if err != nil {
			return nil, err
		}
		simT := run.Metrics.Sim.Total * st.MaterializeFactor

		// YSmart correlations: shared scans of re-read base tables
		// (input correlation) and avoided intermediate write+read
		// between consecutive correlated jobs (transit correlation).
		// The combined discount is capped at half the step's own time —
		// merged jobs still shuffle, sort and reduce their data.
		var discount float64
		base := db.BaseName(relName)
		if st.SharedScan && scanned[base] {
			if ts, err := db.Catalog.Stats(relName); err == nil {
				// Input correlation merges the duplicate scan's whole
				// map phase into the earlier job: one sequential read
				// and one spill pass instead of two [23]. Self-join
				// workloads (the mobile queries read the same physical
				// table three or four times) are where YSmart's ~2×
				// advantage over Hive comes from.
				discount += float64(ts.ModeledSize) * readWrite
			}
		}
		scanned[base] = true
		// Transit correlation requires consecutive jobs to partition on
		// the same key [23]: only then can YSmart merge them into one
		// common MapReduce job and skip re-materialising the
		// intermediate. A cascade that re-keys every step (e.g. Q7's
		// suppkey → orderkey → custkey chain) gets no discount.
		keySig := equiKeySignature(conds)
		if st.TransitDiscount > 0 && step > 1 && intersects(keySig, prevKeySig) {
			discount += float64(prevOutBytes) * readWrite * st.TransitDiscount
		}
		if max := 0.5 * simT; discount > max {
			discount = max
		}
		simT -= discount
		prevOutBytes = run.Metrics.OutputBytes
		prevKeySig = keySig

		res.Steps = append(res.Steps, StepMetrics{
			Name: jobName, Relation: relName, SimTime: simT, Metrics: run.Metrics,
		})
		res.TotalTime += simT
		res.ShuffleBytes += run.Metrics.ShuffleBytes
		current = run.Output
		joined[relName] = true
	}
	current.Name = q.Name
	res.Output = current
	return res, nil
}

// joinOrder produces the left-deep order: the query's written order,
// except that each next relation must connect to those already joined
// (the first connected one in written order goes next).
func joinOrder(q *query.Query) ([]string, error) {
	rels := q.Relations
	if len(rels) < 2 {
		return nil, fmt.Errorf("baselines: need >= 2 relations")
	}
	joined := map[string]bool{rels[0]: true}
	out := []string{rels[0]}
	remaining := append([]string(nil), rels[1:]...)
	for len(remaining) > 0 {
		idx := -1
		for i, r := range remaining {
			if len(condsBetween(q, joined, r)) > 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("baselines: query graph disconnected at %v", remaining)
		}
		out = append(out, remaining[idx])
		joined[remaining[idx]] = true
		remaining = append(remaining[:idx], remaining[idx+1:]...)
	}
	return out, nil
}

// condsBetween collects conditions linking the joined set to the new
// relation.
func condsBetween(q *query.Query, joined map[string]bool, relName string) predicate.Conjunction {
	var out predicate.Conjunction
	for _, c := range q.Conditions {
		if other, ok := c.Other(relName); ok && joined[other] {
			out = append(out, c)
		}
	}
	return out
}

// prefixBase renames a base relation's columns to "rel.col", the
// naming of every cascade intermediate's columns.
func prefixBase(r *relation.Relation) *relation.Relation {
	cols := r.Schema.Columns()
	for i := range cols {
		cols[i].Name = r.Name + "." + cols[i].Name
	}
	out := *r
	out.Schema = relation.MustSchema(cols...)
	return &out
}

// buildStepJob creates the pairwise join job for one cascade stage,
// joining the intermediate with a prefixBase'd base relation:
// repartition hash join on the equalities' join keys when the step has
// any, fragment-and-replicate cross join otherwise (the practical
// Hive/Pig realisation of an inequality join). Either way the reducer
// is a nested loop over its two groups, charged len(ls)·len(rs), that
// tests every pair against all conditions, hash-collided equalities
// included (core.PairMatcher).
func buildStepJob(name string, inter, base *relation.Relation, conds predicate.Conjunction, kr int) (*mr.Job, error) {
	// Orient each condition so that its right side is base, and name
	// both columns "rel.col" with the intermediate as the left relation,
	// as core's cascades name an intermediate's columns.
	conds = slices.Clone(conds)
	for i, c := range conds {
		if c.Right != base.Name {
			c = c.Reversed()
		}
		c.Left, c.LeftColumn, c.RightColumn = inter.Name, c.Left+"."+c.LeftColumn, c.Right+"."+c.RightColumn
		conds[i] = c
	}
	pm, err := core.NewPairMatcher(inter, base, conds)
	if err != nil {
		return nil, err
	}
	dicts := make([]*relation.Dict, inter.Schema.Len(), inter.Schema.Len()+len(base.Dicts))
	copy(dicts, inter.Dicts)
	job := &mr.Job{
		Name: name,
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ls, rs := groups[0], groups[1]
			ctx.AddWork(int64(len(ls)) * int64(len(rs)))
			pm.Join(ls, rs, func(l, r relation.Tuple) { ctx.EmitConcat(l, r) })
		},
		NumReducers:  kr,
		OutputName:   name,
		OutputSchema: relation.MustSchema(slices.Concat(inter.Schema.Columns(), base.Schema.Columns())...),
		OutputDicts:  append(dicts, base.Dicts...),
	}
	if pm.Keyed() {
		job.Inputs = []mr.Input{
			{Rel: inter, Map: func(t relation.Tuple, emit mr.Emitter) { emit(pm.ShuffleKey(0, t)) }},
			{Rel: base, Map: func(t relation.Tuple, emit mr.Emitter) { emit(pm.ShuffleKey(1, t)) }},
		}
		return job, nil
	}
	// Inequality-only step: 1-Bucket-style cross partition — the
	// practical realisation of a theta join in Hive/Pig-era systems
	// [25]. The |L|×|R| matrix is tiled rows×cols ≈ kr; the left input
	// replicates across its row's rectangles, the right across its
	// column's (map tasks run concurrently, so assignment is a pure
	// hash of the tuple).
	rows, cols := squarish(kr)
	job.NumReducers = rows * cols
	job.Inputs = []mr.Input{
		{Rel: inter, Map: func(t relation.Tuple, emit mr.Emitter) {
			row := tupleHash(t) % uint64(rows)
			for c := 0; c < cols; c++ {
				emit(row*uint64(cols) + uint64(c))
			}
		}},
		{Rel: base, Map: func(t relation.Tuple, emit mr.Emitter) {
			col := (tupleHash(t) >> 17) % uint64(cols)
			for r := 0; r < rows; r++ {
				emit(uint64(r)*uint64(cols) + col)
			}
		}},
	}
	return job, nil
}

// squarish factors kr into rows×cols with rows·cols ≤ kr and the
// shape as square as possible (maximising rectangle area balance,
// minimising total replication rows+cols).
func squarish(kr int) (rows, cols int) {
	best := 1
	for f := 1; f*f <= kr; f++ {
		if kr%f == 0 {
			best = f
		}
	}
	rows = best
	cols = kr / best
	// Highly non-square factorizations (primes) replicate badly; fall
	// back to floor(sqrt) grid that may waste a few reducers.
	if cols > 4*rows {
		s := int(math.Sqrt(float64(kr)))
		if s < 1 {
			s = 1
		}
		return s, s
	}
	return rows, cols
}

// tupleHash mixes every value of a tuple into a partition key.
func tupleHash(t relation.Tuple) uint64 {
	h := relation.NewFNV()
	for _, v := range t {
		h = h.Text(v).Byte(0x1f)
	}
	return uint64(h)
}

// equiKeySignature canonicalises the equality-join attributes of a
// step as "rel.col" strings (both sides of every equality condition).
func equiKeySignature(conds predicate.Conjunction) map[string]bool {
	sig := make(map[string]bool)
	for _, c := range conds {
		if c.Op == predicate.EQ && c.LeftOffset == 0 && c.RightOffset == 0 {
			sig[c.Left+"."+c.LeftColumn] = true
			sig[c.Right+"."+c.RightColumn] = true
		}
	}
	return sig
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// Names returns the standard comparison set, in the paper's plot order.
func Names() []string { return []string{"Our Method", "YSmart", "Hive", "Pig"} }
