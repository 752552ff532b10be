package core

import (
	"fmt"
	"math"
	"slices"

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

// Planner maps an N-join query onto a scheduled set of MapReduce jobs
// (the paper's T_opt and execution plan P). Its jobs run on the engine
// and its cost model prices with mr.PaperRates, the price list the
// engine's clock reads, so the two cannot disagree on a rate.
type Planner struct {
	Config mr.Config
	KP     int // available processing units

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
	Units    int // scheduler allotment, >= 1
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
	edgeIDs  []int // the condition IDs it evaluates, ascending
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
// units. A condition no key mode evaluates fails it first (CheckConditions).
func (pl *Planner) Plan(q *query.Query, db *DB) (*Plan, error) {
	if err := pl.checkQuery(q, db); err != nil {
		return nil, err
	}
	g := q.JoinGraph()
	cands := make(map[uint64]*candidate)
	costFn := func(edgeIDs []int) (float64, int, error) {
		c, err := pl.costEdge(q, g, db, edgeIDs)
		if err != nil {
			return 0, 0, err
		}
		cands[joinpath.IDsToMask(edgeIDs)] = c
		return c.bestT, c.bestK, nil
	}
	edges, err := joinpath.Build(g, costFn)
	if err != nil {
		return nil, err
	}

	// Weighted set cover over the surviving candidates.
	universe := q.ConditionIDs()
	sets := make([]setcover.Set, len(edges))
	for i, e := range edges {
		sets[i] = setcover.Set{ID: i, Elems: e.EdgeIDs, Weight: e.Weight}
	}
	greedyIDs, err := setcover.Greedy(universe, sets)
	if err != nil {
		return nil, err
	}
	covers := [][]int{greedyIDs}
	// When G'_JP is small, also evaluate the exhaustive minimum-
	// weight cover and keep whichever cover schedules faster.
	if len(sets) <= 16 {
		if exIDs, _, err := setcover.Exhaustive(universe, sets, 16); err == nil {
			covers = append(covers, exIDs)
		}
	}

	var best *Plan
	for _, cover := range covers {
		chosen := make([]*candidate, len(cover))
		for i, setID := range cover {
			chosen[i] = cands[joinpath.IDsToMask(edges[setID].EdgeIDs)]
		}
		plan, err := pl.scheduleCover(q, chosen, db)
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

// PlanCover schedules a cover of q's conditions chosen by the caller,
// not by set cover: each set of condition IDs becomes one job, costed
// and scheduled as Plan does its candidates (no G'_JP is built, so
// CandidateEdges is 0). An empty set, an unknown condition ID, a
// condition no set covers or one CheckConditions refuses is an error.
func (pl *Planner) PlanCover(q *query.Query, db *DB, cover [][]int) (*Plan, error) {
	if err := pl.checkQuery(q, db); err != nil {
		return nil, err
	}
	covered := make([]bool, len(q.Conditions))
	for i, set := range cover {
		if len(set) == 0 {
			return nil, fmt.Errorf("core: cover set %d of %s is empty", i+1, q.Name)
		}
		for _, id := range set {
			if _, ok := q.Condition(id); !ok {
				return nil, fmt.Errorf("core: cover set %d names condition %d, which %s lacks", i+1, id, q.Name)
			}
			covered[id-1] = true
		}
	}
	if i := slices.Index(covered, false); i >= 0 {
		return nil, fmt.Errorf("core: cover leaves condition %d of %s uncovered", i+1, q.Name)
	}
	g := q.JoinGraph()
	chosen := make([]*candidate, len(cover))
	for i, set := range cover {
		c, err := pl.costEdge(q, g, db, slices.Compact(slices.Sorted(slices.Values(set))))
		if err != nil {
			return nil, err
		}
		chosen[i] = c
	}
	return pl.scheduleCover(q, chosen, db)
}

// checkQuery is Plan's and PlanCover's prologue: KP, then CheckConditions.
func (pl *Planner) checkQuery(q *query.Query, db *DB) error {
	if pl.KP < 1 {
		return fmt.Errorf("core: planner needs KP >= 1")
	}
	return CheckConditions(q, db)
}

// CheckConditions binds q's conditions against db's relations, so the
// planner and the baselines' cascades refuse a condition no key mode
// evaluates — a string compared with a number, or strings with no
// dictionary — before any job is costed or run, naming both columns.
func CheckConditions(q *query.Query, db *DB) error {
	rels := make([]*relation.Relation, len(q.Relations))
	for i, name := range q.Relations {
		r, err := db.Relation(name)
		if err != nil {
			return err
		}
		rels[i] = r
	}
	_, err := bindConditions(q.Conditions, rels)
	return err
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
	// key distribution: their σ is estimated from the hottest detected
	// key (capped at the threshold beyond which the runtime splits the
	// key across sub-reducers).
	profile, bestK, bestT, err := pl.sweepReducers(costSweepInputs{
		kind:       kind,
		inputBytes: inputBytes,
		mapTasks:   mapTasks,
		outBytes:   outBytes,
		numRels:    m,
		pmax:       maxJoinHotFrac(db.Catalog, conds, kind),
		conds:      conds,
		rels:       orderedRels,
	}, pl.KP)
	if err != nil {
		return nil, err
	}
	return &candidate{
		edgeIDs:  edgeIDs,
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
	var rowBytes float64
	cardProd := 1.0
	maxMult := 1.0
	for _, name := range relOrder {
		ts, err := cat.Stats(name)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		inputBytes += ts.ModeledSize
		mt := int((ts.ModeledSize + mr.BlockSize - 1) / mr.BlockSize)
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
	if cap := int64(mr.OutputCapRatio * float64(inputBytes)); outBytes > cap {
		outBytes = cap
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
	pmax       float64 // hottest join-key fraction
	// Share-grid geometry hooks; only consulted for KindShareGrid.
	conds predicate.Conjunction
	rels  []*relation.Relation
}

// sweepReducers evaluates the T(k) profile for k = 1..maxK and
// returns it with the argmin.
func (pl *Planner) sweepReducers(in costSweepInputs, maxK int) ([]float64, int, float64, error) {
	profile := make([]float64, maxK)
	bestK, bestT := 1, math.Inf(1)
	rates := mr.PaperRates()
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
			Sigma:    sigmaFracFor(in.kind, effectiveN, in.pmax) * shuffle / float64(effectiveN),
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
// Hilbert cube's constant (it routes by salted random IDs, immune to
// value skew), else the estimate from the hottest join-key fraction.
func sigmaFracFor(kind JobKind, parallelism int, pmax float64) float64 {
	if kind == KindHilbertTheta {
		return 0.08
	}
	return skew.SigmaFrac(pmax, parallelism, skew.DefaultThreshold)
}

// maxJoinHotFrac scans the heavy-hitter reports of the conjunction's
// equality endpoints and returns the hottest detected key fraction: 0
// when nothing is hot, which SigmaFrac maps to a small
// residual-variance floor.
func maxJoinHotFrac(cat *relation.Catalog, conds predicate.Conjunction, kind JobKind) (pmax float64) {
	if cat == nil {
		return 0
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
			if err != nil {
				continue
			}
			if hks := ts.HotKeys[end[1]]; len(hks) > 0 && hks[0].Frac > pmax {
				pmax = hks[0].Frac
			}
		}
	}
	return pmax
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

// scheduleCover turns the costed candidates of one sufficient cover
// into a scheduled plan, one job per candidate in cover order.
func (pl *Planner) scheduleCover(q *query.Query, cover []*candidate, db *DB) (*Plan, error) {
	var jobs []PlannedJob
	var tasks []schedule.Task
	var mergeOps []mergeOperand
	for i, c := range cover {
		name := fmt.Sprintf("%s-j%d", q.Name, i+1)
		jobs = append(jobs, PlannedJob{
			Name:     name,
			EdgeIDs:  append([]int(nil), c.edgeIDs...),
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
	// executor's mergeTree will walk, rather than a plan-order chain.
	var mergeEst float64
	rates := mr.PaperRates()
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
	for i := range jobs {
		// Share-grid jobs round their reducer grid down to a feasible
		// share product, so ask with the full allotment: the operator
		// itself derives the largest grid that fits, keeping reduce
		// slots busy.
		if jobs[i].Kind == KindShareGrid {
			jobs[i].Reducers = jobs[i].Units
		}
		// With the reducer count final, decide the job's hot-key handling
		// from the catalog's heavy-hitter reports, and record the σ
		// fraction the cost model charged, so the execution report can
		// print planned σ next to the measured balance ratio.
		jobs[i].Skew = SkewPlanFor(db.Catalog, jobs[i].Kind, jobs[i].Conds, jobs[i].Reducers, skew.DefaultThreshold)
		pmax := maxJoinHotFrac(db.Catalog, jobs[i].Conds, jobs[i].Kind)
		jobs[i].SigmaFrac = sigmaFracFor(jobs[i].Kind, jobs[i].Reducers, pmax)
	}
	return &Plan{
		Query:             q,
		Jobs:              jobs,
		EstimatedMakespan: sched.Makespan + mergeEst,
		MergeEstimate:     mergeEst,
		Schedule:          sched,
	}, nil
}
