package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/joinpath"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schedule"
	"repro/internal/setcover"
	"repro/internal/skew"
)

// PlanOptions tune the planner.
type PlanOptions struct {
	// MaxPathLen caps candidate path lengths in G'_JP (0 = all).
	MaxPathLen int
	// MaxCells bounds the Hilbert grid (0 = MaxCellsDefault).
	MaxCells int
	// ForceSingleJob restricts the cover to the single candidate
	// evaluating every condition in one MapReduce job (used by the
	// single-vs-multi ablation; errors if no such candidate survives).
	ForceSingleJob bool
	// DisableReplan turns off the runtime feedback loop: jobs that
	// consume produced intermediates keep the reducer count and skew
	// handling the static plan chose instead of re-deriving them from
	// measured statistics at dispatch time (see replan.go; kept for
	// the static-vs-feedback ablation).
	DisableReplan bool
}

// Planner maps an N-join query onto a scheduled set of MapReduce jobs
// (the paper's T_opt and execution plan P). Its jobs run with Config and
// its cost model prices with Config.Rates, so the two cannot disagree
// on a rate.
type Planner struct {
	Config mr.Config
	KP     int // available processing units
	Opts   PlanOptions

	// Pool arbitrates the processing units at execution time. Nil (the
	// default) gives each execution a SharedUnitPool of its own K_P units
	// — the one-shot batch behavior. A server installs a SharedUnitPool (optionally
	// budget-capped per query via WithBudget) so concurrent plans
	// contend for one machine-wide K_P instead of each assuming it owns
	// the cluster.
	Pool UnitPool
}

// NewPlanner builds a planner with kP processing units.
func NewPlanner(cfg mr.Config, kp int) *Planner {
	return &Planner{Config: cfg, KP: kp}
}

// PlannedJob is one selected MRJ(e′).
type PlannedJob struct {
	Name     string
	EdgeIDs  []int
	Conds    predicate.Conjunction
	RelOrder []string
	Kind     JobKind
	Reducers int // k_R to execute with (allotment-capped argmin of T(k))
	Units    int // scheduler allotment
	EstTime  float64
	Profile  []float64 // T(k) for k = 1..KP

	// SigmaFrac is the reducer-input variation coefficient the cost
	// model charged this job (σ as a fraction of the mean reducer
	// load), resolved at the final reducer count. Report prints it next
	// to the measured balance ratio.
	SigmaFrac float64

	// Skew is the hot-key handling chosen for this job from the
	// catalog's heavy-hitter reports; nil when no key is hot enough.
	// The physical operators derive their split layout from it at build
	// time.
	Skew *skew.JobPlan
}

// Plan is the optimizer's output: the chosen job set with its schedule.
type Plan struct {
	Query             *query.Query
	Jobs              []PlannedJob
	EstimatedMakespan float64
	MergeEstimate     float64 // estimated total merge time appended after jobs
	CandidateEdges    int     // |G'_JP.E|

	// Schedule is the executable K_P placement of the jobs: dispatch
	// order, unit assignments, waves and dependencies. Execute drives
	// it for real; a nil schedule (hand-built plans) falls back to
	// plan-order dispatch.
	Schedule *schedule.Plan
}

// String renders a compact plan description.
func (p *Plan) String() string {
	s := fmt.Sprintf("plan for %s: %d jobs, est %.1fs", p.Query.Name, len(p.Jobs), p.EstimatedMakespan)
	for _, j := range p.Jobs {
		s += fmt.Sprintf("\n  %s [%s] conds=%v kR=%d units=%d est=%.1fs",
			j.Name, j.Kind, j.EdgeIDs, j.Reducers, j.Units, j.EstTime)
	}
	return s
}

// candidate carries the costing of one G'_JP edge during planning.
type candidate struct {
	edge     joinpath.PathEdge
	conds    predicate.Conjunction
	relOrder []string
	kind     JobKind
	profile  []float64
	bestK    int
	bestT    float64
	outBytes int64
	estRows  float64
}

// Plan runs the full §5 pipeline: construct G'_JP with the cost model,
// select a sufficient T by weighted set cover, and schedule it on K_P
// units.
func (pl *Planner) Plan(q *query.Query, db *DB) (*Plan, error) {
	if pl.KP < 1 {
		return nil, fmt.Errorf("core: planner needs KP >= 1")
	}
	g := q.JoinGraph()
	cands := make(map[string]*candidate)
	costFn := func(edgeIDs []int) (float64, int, error) {
		c, err := pl.costEdge(q, g, db, edgeIDs)
		if err != nil {
			return 0, 0, err
		}
		cands[keyOfIDs(edgeIDs)] = c
		return c.bestT, c.bestK, nil
	}
	edges, err := joinpath.Build(g, costFn, pl.Opts.MaxPathLen)
	if err != nil {
		return nil, err
	}

	// Weighted set cover over the surviving candidates.
	universe := q.ConditionIDs()
	sets := make([]setcover.Set, len(edges))
	for i, e := range edges {
		sets[i] = setcover.Set{ID: i, Elems: e.EdgeIDs, Weight: e.Weight}
	}
	var covers [][]int
	if pl.Opts.ForceSingleJob {
		full := joinpath.IDsToMask(universe)
		found := -1
		for i, e := range edges {
			if joinpath.IDsToMask(e.EdgeIDs) == full {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("core: no single-job candidate covers all conditions of %s", q.Name)
		}
		covers = append(covers, []int{found})
	} else {
		greedyIDs, err := setcover.Greedy(universe, sets)
		if err != nil {
			return nil, err
		}
		covers = append(covers, greedyIDs)
		// When G'_JP is small, also evaluate the exhaustive minimum-
		// weight cover and keep whichever cover schedules faster.
		if len(sets) <= 16 {
			if exIDs, _, err := setcover.Exhaustive(universe, sets, 16); err == nil {
				covers = append(covers, exIDs)
			}
		}
	}

	var best *Plan
	for _, cover := range covers {
		plan, err := pl.scheduleCover(q, edges, cands, cover, db)
		if err != nil {
			return nil, err
		}
		if best == nil || plan.EstimatedMakespan < best.EstimatedMakespan {
			best = plan
		}
	}
	best.CandidateEdges = len(edges)
	return best, nil
}

func keyOfIDs(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

// costEdge profiles one candidate edge: T(k) for k = 1..KP using the
// Eq. 1–6 model with duplication-aware α for Hilbert jobs.
func (pl *Planner) costEdge(q *query.Query, g *query.JoinGraph, db *DB, edgeIDs []int) (*candidate, error) {
	conds, err := g.SubgraphConditions(edgeIDs)
	if err != nil {
		return nil, err
	}
	relOrder, err := OrderRelations(conds)
	if err != nil {
		return nil, err
	}
	m := len(relOrder)
	kind := KindHilbertTheta
	if AllEquiSamePair(conds) {
		kind = KindHashEqui
	} else if ShareGridApplicable(conds) {
		kind = KindShareGrid
	}
	orderedRels := make([]*relation.Relation, m)
	relByName := make(map[string]*relation.Relation, m)
	for i, name := range relOrder {
		r, err := db.Relation(name)
		if err != nil {
			return nil, err
		}
		orderedRels[i] = r
		relByName[name] = r
	}
	inputBytes, mapTasks, outBytes, estRows, err := pl.sizeJob(db.Catalog, relOrder, conds,
		func(name string) float64 { return relByName[name].VolumeMultiplier })
	if err != nil {
		return nil, err
	}
	// Reducer skew: the Hilbert cube balances by construction
	// (Theorem 2: tuples route by salted-hash global IDs, immune to
	// value skew), while hash and share-grid partitioning follow the
	// key distribution. When the catalog carries a heavy-hitter report
	// the constant fudge factors are replaced by an estimate derived
	// from the hottest detected key (capped at the threshold beyond
	// which the runtime splits the key across sub-reducers); without a
	// report the historical constants apply.
	pmax, skewKnown := 0.0, false
	if kind != KindHilbertTheta {
		pmax, skewKnown = maxJoinHotFrac(db.Catalog, conds, kind)
	}
	profile, bestK, bestT, err := pl.sweepReducers(costSweepInputs{
		kind:       kind,
		inputBytes: inputBytes,
		mapTasks:   mapTasks,
		outBytes:   outBytes,
		numRels:    m,
		pmax:       pmax,
		skewKnown:  skewKnown,
		conds:      conds,
		rels:       orderedRels,
	}, pl.KP)
	if err != nil {
		return nil, err
	}
	return &candidate{
		conds:    conds,
		relOrder: relOrder,
		kind:     kind,
		profile:  profile,
		bestK:    bestK,
		bestT:    bestT,
		outBytes: outBytes,
		estRows:  estRows,
	}, nil
}

// sizeJob accumulates the cost model's input quantities for a job
// over the given catalog: total modeled input, map task count, the
// selectivity-estimated output volume (after mirroring the engine's
// output cap, so β and the merge estimates see the volumes execution
// will produce), and the estimated result rows. multOf resolves a
// relation's VolumeMultiplier — from base relations at plan time,
// from produced intermediates at replan time — so static costing and
// runtime re-planning share one size model.
func (pl *Planner) sizeJob(cat *relation.Catalog, relOrder []string, conds predicate.Conjunction, multOf func(string) float64) (inputBytes int64, mapTasks int, outBytes int64, estRows float64, err error) {
	blockBytes := int64(pl.Config.BlockSizeMB) * 1e6
	var rowBytes float64
	cardProd := 1.0
	maxMult := 1.0
	for _, name := range relOrder {
		ts, err := cat.Stats(name)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		inputBytes += ts.ModeledSize
		mt := int((ts.ModeledSize + blockBytes - 1) / blockBytes)
		if mt < 1 {
			mt = 1
		}
		mapTasks += mt
		rowBytes += ts.AvgTuple
		cardProd *= math.Max(1, float64(ts.Cardinality))
		if m := multOf(name); m > maxMult {
			maxMult = m
		}
	}
	sel, err := predicate.EstimateConjunction(conds, cat)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	estRows = cardProd * sel
	outBytes = int64(estRows * rowBytes * maxMult)
	if ratio := pl.Config.OutputCapRatio; ratio > 0 {
		if cap := int64(ratio * float64(inputBytes)); outBytes > cap {
			outBytes = cap
		}
	}
	return inputBytes, mapTasks, outBytes, estRows, nil
}

// costSweepInputs carries the size quantities the Eq. 1–6 reducer
// sweep consumes — produced from catalog statistics by costEdge and
// from measured intermediate statistics by the runtime replan step,
// so static and feedback planning share one cost path.
type costSweepInputs struct {
	kind       JobKind
	inputBytes int64
	mapTasks   int
	outBytes   int64
	numRels    int     // m, for the Hilbert duplication exponent
	pmax       float64 // hottest join-key fraction, when measured
	skewKnown  bool
	// Share-grid geometry hooks; only consulted for KindShareGrid.
	conds predicate.Conjunction
	rels  []*relation.Relation
}

// sweepReducers evaluates the T(k) profile for k = 1..maxK and
// returns it with the argmin.
func (pl *Planner) sweepReducers(in costSweepInputs, maxK int) ([]float64, int, float64, error) {
	profile := make([]float64, maxK)
	bestK, bestT := 1, math.Inf(1)
	rates := pl.Config.Rates()
	var grid *shareGrid
	if in.kind == KindShareGrid {
		var err error
		if grid, err = newShareGrid(in.conds, in.rels); err != nil {
			return nil, 0, 0, err
		}
	}
	for k := 1; k <= maxK; k++ {
		var shuffle float64
		effectiveN := k
		switch in.kind {
		case KindHashEqui:
			shuffle = float64(in.inputBytes)
		case KindShareGrid:
			grid.assign(k)
			shuffle = float64(in.inputBytes) * grid.replication()
			effectiveN = grid.cells()
		default:
			// Hilbert duplication: each tuple is copied ~k^((m-1)/m)
			// times (Eq. 9's fair-duplication factor).
			dup := math.Pow(float64(k), float64(in.numRels-1)/float64(in.numRels))
			shuffle = float64(in.inputBytes) * dup
		}
		alpha := 1.0
		if in.inputBytes > 0 {
			alpha = shuffle / float64(in.inputBytes)
		}
		beta := 0.0
		if shuffle > 0 {
			beta = float64(in.outBytes) / shuffle
		}
		prof := cost.JobProfile{
			InputBytes: in.inputBytes,
			MapTasks:   in.mapTasks,
			// k allotted units run map AND reduce tasks (§3.1), so the
			// map wave width shrinks with the allotment too.
			MapSlots: min(pl.Config.MapSlots, k),
			Alpha:    alpha,
			Beta:     beta,
			Sigma:    sigmaFracFor(in.kind, effectiveN, in.pmax, in.skewKnown) * shuffle / float64(effectiveN),
		}
		est, err := cost.Evaluate(rates, prof, effectiveN)
		if err != nil {
			return nil, 0, 0, err
		}
		profile[k-1] = est.T
		if est.T < bestT {
			bestT, bestK = est.T, k
		}
	}
	return profile, bestK, bestT, nil
}

// sigmaFracFor resolves the reducer-input variation coefficient: the
// measured-skew estimate when a heavy-hitter report exists, else the
// historical per-kind constants.
func sigmaFracFor(kind JobKind, parallelism int, pmax float64, known bool) float64 {
	switch kind {
	case KindHashEqui:
		if known {
			return skew.SigmaFrac(pmax, parallelism, skew.DefaultThreshold)
		}
		return 0.3 // key-value hash distribution skews
	case KindShareGrid:
		if known {
			return skew.SigmaFrac(pmax, parallelism, skew.DefaultThreshold)
		}
		return 0.15 // attribute-class hashing, moderate skew
	default:
		return 0.08
	}
}

// maxJoinHotFrac scans the heavy-hitter reports of the conjunction's
// equality endpoints and returns the hottest detected key fraction.
// known reports whether any endpoint carried a (possibly empty)
// report: an analyzed-but-uniform column legitimately yields pmax 0,
// which SigmaFrac maps to a small residual-variance floor, whereas an
// unanalyzed catalog keeps the pessimistic constants.
func maxJoinHotFrac(cat *relation.Catalog, conds predicate.Conjunction, kind JobKind) (pmax float64, known bool) {
	if cat == nil {
		return 0, false
	}
	for _, c := range conds {
		if !c.Op.IsEquality() {
			continue
		}
		if kind == KindShareGrid && (c.LeftOffset != 0 || c.RightOffset != 0) {
			continue // only zero-offset equalities form grid dimensions
		}
		for _, end := range [][2]string{{c.Left, c.LeftColumn}, {c.Right, c.RightColumn}} {
			ts, err := cat.Stats(end[0])
			if err != nil || ts.HotKeys == nil {
				continue
			}
			hks, ok := ts.HotKeys[end[1]]
			if !ok {
				continue
			}
			known = true
			if len(hks) > 0 && hks[0].Frac > pmax {
				pmax = hks[0].Frac
			}
		}
	}
	return pmax, known
}

// SkewPlanFor consults the catalog's heavy-hitter reports and returns
// the hot-key handling a job of this kind should run with, or nil when
// no join-key value is hot enough at the given reducer count (or the
// kind is skew-immune). Per SharesSkew, what overloads a reducer is a
// hot value COMBINATION of the columns it is keyed on: a hash-equi job
// reports each side's key columns as one set, in condition order — the
// order the operator hashes them, so BuildHashEquiJob can derive
// splits from the composite key hash it already shuffles on — and a
// share-grid job reports every column that forms a grid dimension.
func SkewPlanFor(cat *relation.Catalog, kind JobKind, conds predicate.Conjunction, reducers int, threshold float64) *skew.JobPlan {
	if cat == nil || reducers < 2 {
		return nil
	}
	plan := skew.NewJobPlan(threshold)
	hotEnough := false
	add := func(rel string, cols []string) {
		ts, err := cat.Stats(rel)
		if err != nil {
			return
		}
		hot := skew.Report(ts, cols)
		if len(hot) == 0 {
			return
		}
		plan.Add(rel, cols, hot)
		if hot[0].Frac*float64(reducers) > plan.Threshold {
			hotEnough = true
		}
	}
	switch kind {
	case KindHashEqui:
		if !AllEquiSamePair(conds) {
			return nil
		}
		rels := conds.Relations()
		var lCols, rCols []string
		for _, c := range conds {
			if c.Left != rels[0] {
				c = c.Reversed()
			}
			lCols = append(lCols, c.LeftColumn)
			rCols = append(rCols, c.RightColumn)
		}
		add(rels[0], lCols)
		add(rels[1], rCols)
	case KindShareGrid:
		for _, c := range conds {
			// Only zero-offset equalities form grid dimensions.
			if c.Op.IsEquality() && c.LeftOffset == 0 && c.RightOffset == 0 {
				add(c.Left, []string{c.LeftColumn})
				add(c.Right, []string{c.RightColumn})
			}
		}
	default:
		return nil // the Hilbert cube routes by salted random IDs
	}
	if !hotEnough {
		return nil
	}
	return plan
}

// scheduleCover turns one sufficient cover into a scheduled plan.
func (pl *Planner) scheduleCover(q *query.Query, edges []joinpath.PathEdge, cands map[string]*candidate, cover []int, db *DB) (*Plan, error) {
	var jobs []PlannedJob
	var tasks []schedule.Task
	var mergeOps []mergeOperand
	for i, setID := range cover {
		e := edges[setID]
		c, ok := cands[keyOfIDs(e.EdgeIDs)]
		if !ok {
			return nil, fmt.Errorf("core: no costing cached for edge %v", e.EdgeIDs)
		}
		name := fmt.Sprintf("%s-j%d", q.Name, i+1)
		jobs = append(jobs, PlannedJob{
			Name:     name,
			EdgeIDs:  append([]int(nil), e.EdgeIDs...),
			Conds:    c.conds,
			RelOrder: append([]string(nil), c.relOrder...),
			Kind:     c.kind,
			Reducers: c.bestK,
			EstTime:  c.bestT,
			Profile:  append([]float64(nil), c.profile...),
		})
		tasks = append(tasks, schedule.Task{ID: name, Profile: c.profile})
		rels := make(map[string]bool, len(c.relOrder))
		for _, r := range c.relOrder {
			rels[r] = true
		}
		card := int(math.Min(c.estRows, float64(math.MaxInt32)))
		mergeOps = append(mergeOps, mergeOperand{rels: rels, card: card, bytes: c.outBytes})
	}
	// Estimate the merge phase over the same pair-selection tree the
	// executor's MergeAll will walk, rather than a plan-order chain.
	var mergeEst float64
	rates := pl.Config.Rates()
	for _, st := range estimateMergeSteps(mergeOps) {
		mergeEst += cost.MergeCost(rates, st.LeftBytes, st.RightBytes)
	}
	sched, err := schedule.Schedule(tasks, pl.KP)
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		p, ok := sched.Placement(jobs[i].Name)
		if !ok {
			return nil, fmt.Errorf("core: schedule lost job %s", jobs[i].Name)
		}
		jobs[i].Units = p.Units
		if jobs[i].Reducers > p.Units {
			jobs[i].Reducers = p.Units
		}
		jobs[i].EstTime = p.Finish - p.Start
	}
	// A lone job owns the whole cluster: granting it every unit widens
	// its map waves for free even when its reducer optimum is lower.
	if len(jobs) == 1 && jobs[0].Units < pl.KP {
		jobs[0].Units = pl.KP
	}
	// Share-grid jobs round their reducer grid down to a feasible share
	// product, so ask with the full allotment: the operator itself
	// derives the largest grid that fits, keeping reduce slots busy.
	for i := range jobs {
		if jobs[i].Kind == KindShareGrid {
			jobs[i].Reducers = jobs[i].Units
		}
	}
	// With the reducer counts final, decide per-job hot-key handling
	// from the catalog's heavy-hitter reports.
	if db != nil {
		for i := range jobs {
			jobs[i].Skew = SkewPlanFor(db.Catalog, jobs[i].Kind, jobs[i].Conds, jobs[i].Reducers, skew.DefaultThreshold)
		}
	}
	// Record the σ fraction the cost model charged at the final reducer
	// count, so the execution report can print planned σ next to the
	// measured balance ratio.
	for i := range jobs {
		pmax, known := 0.0, false
		if db != nil && jobs[i].Kind != KindHilbertTheta {
			pmax, known = maxJoinHotFrac(db.Catalog, jobs[i].Conds, jobs[i].Kind)
		}
		jobs[i].SigmaFrac = sigmaFracFor(jobs[i].Kind, jobs[i].Reducers, pmax, known)
	}
	return &Plan{
		Query:             q,
		Jobs:              jobs,
		EstimatedMakespan: sched.Makespan + mergeEst,
		MergeEstimate:     mergeEst,
		Schedule:          sched,
	}, nil
}

// Run is the one-call convenience: plan then execute.
func (pl *Planner) Run(q *query.Query, db *DB) (*Plan, *ExecResult, error) {
	return pl.RunContext(context.Background(), q, db)
}

// RunContext is Run under a caller context: cancellation propagates
// into the executor, and an obs.Obs attached to ctx traces the whole
// plan-and-execute pipeline.
func (pl *Planner) RunContext(ctx context.Context, q *query.Query, db *DB) (*Plan, *ExecResult, error) {
	plan, err := pl.Plan(q, db)
	if err != nil {
		return nil, nil, err
	}
	res, err := pl.ExecuteContext(ctx, plan, db)
	if err != nil {
		return plan, nil, err
	}
	return plan, res, nil
}
