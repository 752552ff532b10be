package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schedule"
	"repro/internal/skew"
)

// ExecResult is the outcome of executing a plan.
type ExecResult struct {
	// Output holds the result's first rows, as many as ExecuteLimit was
	// asked to keep — all of them from Execute and ExecuteContext.
	Output *relation.Relation
	// Rows counts the whole result and Hash is its
	// relation.ContentHash, whatever Output keeps: the result job's
	// reducers compute both as they emit the rows, or the rid-merge's
	// final step does as it gathers each row from its parts.
	Rows int
	Hash uint64
	// Makespan is the measured evaluation time: the job set re-timed
	// with simulated durations plus the merge tree (Fig. 4 layout).
	Makespan   float64
	JobMetrics map[string]mr.Metrics
	MergeCount int
	// MergeTime is the merge component of Makespan, charged per
	// mergeTree's actual pair-merge tree (one MergeCost per executed
	// step over that step's real operand sizes).
	MergeTime float64
	// ShuffleBytes totals network copy volume across jobs.
	ShuffleBytes int64
	// SpillBytes and SpillRuns total the REAL bytes and sorted runs the
	// jobs' map tasks wrote to the spill store (0 unless the mr config
	// sets SpillBudgetBytes); PeakLiveBytes is the largest accounted
	// resident pair high-water mark of any job (see
	// mr.Metrics.PeakLiveBytes) — reported next to the modeled spill
	// cost so the real memory bound sits beside the simulated I/O price.
	// All three are worker-count deterministic.
	SpillBytes    int64
	SpillRuns     int
	PeakLiveBytes int64
	// MaxConcurrentJobs is the high-water mark of planned jobs in
	// flight at once: 1 when everything serialised, >= 2 when the
	// placement overlapped independent jobs on the K_P units.
	MaxConcurrentJobs int
	// Replanned lists (sorted) the jobs whose reducer count or skew
	// handling was re-derived at dispatch time from measured upstream
	// statistics by the runtime feedback loop (see replan.go).
	Replanned []string
	// Fault-tolerance telemetry aggregated across jobs. TaskAttempts
	// totals map+reduce attempts launched (wall-clock dependent — retry
	// and speculation scheduling follow real time — so determinism
	// assertions must ignore it, like Wall); TaskFailures totals the
	// deterministically charged task failures (the fault plan's planned
	// kills); SpeculativeLaunched/SpeculativeWins count straggler
	// backups (also wall-clock dependent).
	// ChecksumFailures and FailoverReads count detected spill-frame
	// corruptions and the replica re-reads that absorbed them — both
	// deterministic.
	TaskAttempts        int
	TaskFailures        int
	SpeculativeLaunched int
	SpeculativeWins     int
	ChecksumFailures    int64
	FailoverReads       int64
	// Wall is the MEASURED wall-clock duration of the whole execution
	// (jobs + merge) on this machine — the real-time counterpart of the
	// modeled Makespan. Per-job measured breakdowns live in
	// JobMetrics[name].Wall. Wall varies between runs; determinism
	// assertions must ignore it.
	Wall time.Duration
	// MergeWall is the measured wall-clock share of Wall spent in the
	// final merge tree (modeled counterpart: MergeTime).
	MergeWall time.Duration
	// BuildWall is the measured time each job took to construct before
	// its mr.Run began — partitioner or share grid, compiled join
	// evaluator — on the executor's own goroutine, so it delays every
	// job dispatched after it. Part of Wall, outside JobMetrics[name].Wall.
	BuildWall map[string]time.Duration

	// plan is the executed plan, retained so Report can print planned
	// vs. measured values side by side. Nil for hand-built results;
	// Report degrades gracefully.
	plan *Plan
	// replanJobs holds the feedback-revised copy of each replanned job
	// (keyed by name), so Report can print the static → revised deltas.
	replanJobs map[string]*PlannedJob
}

// Execute runs the plan under a background context; see ExecuteContext.
func (pl *Planner) Execute(plan *Plan, db *DB) (*ExecResult, error) {
	return pl.ExecuteLimit(context.Background(), plan, db, -1)
}

// ExecuteContext runs the plan and keeps every result row; see
// ExecuteLimit.
func (pl *Planner) ExecuteContext(ctx context.Context, plan *Plan, db *DB) (*ExecResult, error) {
	return pl.ExecuteLimit(ctx, plan, db, -1)
}

// execSlot is one dispatchable planned job: its index in plan.Jobs,
// its unit allotment on the K_P semaphore, the names of the jobs that
// must complete first (schedule dependencies plus any planned job
// whose output this job reads) and its wave in the schedule (0 for
// plans without one).
type execSlot struct {
	idx   int
	units int
	deps  []string
	wave  int
}

// jobDone is what a job's goroutine hands back to the dispatch loop.
type jobDone struct {
	idx   int
	units int
	res   *mr.Result
	err   error
}

// planRun is the state of one ExecuteContext call. Everything but the
// job goroutines' sends on done happens on the calling goroutine, so
// no field needs a lock.
type planRun struct {
	pl     *Planner
	plan   *Plan
	db     *DB
	ctx    context.Context
	cancel context.CancelFunc

	// One shard serves every plan-level instant and span; each mr.Run
	// picks the Obs up from ctx and shards per worker.
	o     *obs.Obs
	shard *obs.Shard
	start time.Time

	// pool arbitrates the K_P processing units: Planner.Pool, or a
	// one-plan SharedUnitPool of K_P units when that is nil.
	pool  UnitPool
	order []execSlot
	// consumed[name] marks a planned job whose output another planned
	// job reads (a cascade intermediate): the only jobs worth measuring
	// for feedback re-planning, and the outputs that must not re-enter
	// the final merge (their consumer's output subsumes them).
	consumed map[string]bool
	// keep is the result rows to materialise (< 0: all). resultJob names
	// the plan's one non-consumed job, whose output is the result and
	// whose reducers hash, count and cap it; "" when several outputs
	// merge: each of those jobs then keeps only its rows' rids
	// (projectRids), and merge's final step hashes, counts and cuts the
	// result as it gathers it from the base relations.
	keep      int
	resultJob string
	fb        *feedback
	// replanned holds the feedback-revised copy of each replanned job.
	replanned map[string]*PlannedJob

	done    chan jobDone
	results []*mr.Result // by plan position
	started []bool       // by plan position
	// buildWall[name] is what startJob spent building the job.
	buildWall map[string]time.Duration
	// produced holds the output of every finished job by name: what a
	// dependent waits for and then reads.
	produced map[string]*relation.Relation

	inflight, maxInflight, nDone int
	firstErr                     error
}

// ExecuteLimit drives the planned jobs through the schedule
// placement for real, concurrently, as phases over one planRun: until
// every job is done, dispatch starts each placement whose dependencies
// have completed and whose unit allotment fits the free capacity of
// the K_P-unit pool — on its own goroutine, with map/reduce slot
// budgets and a proportional share of the machine's real workers taken
// from its units — await blocks for a finished job or freed capacity
// and complete books the job's output and statistics; retime
// re-schedules the measured durations and merge joins the partial
// results. The first job error cancels the context, the jobs still in
// flight are drained, and that error is returned.
//
// The result's Output keeps only its first keep rows (every row when
// keep < 0), while Rows and Hash describe all of them: the job that
// produces the result, or the merge step that gathers it, hashes and
// counts every row where it makes it and materialises only those it
// keeps.
// Job metrics, Makespan and merge costs do not depend on keep.
//
// Execution is deterministic for a fixed plan: job outputs and metrics
// are collected by plan position, outputs merge in plan order, and
// each mr.Run is itself deterministic — so the result relation and the
// byte-level metrics are identical regardless of how the jobs
// interleave on the wall clock.
func (pl *Planner) ExecuteLimit(ctx context.Context, plan *Plan, db *DB, keep int) (*ExecResult, error) {
	if len(plan.Jobs) == 0 {
		return nil, fmt.Errorf("core: empty plan")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newPlanRun(ctx, pl, plan, db, keep)
	if err != nil {
		return nil, err
	}
	defer r.cancel()
	span := r.shard.Start("execute",
		obs.A("query", plan.Query.Name), obs.A("jobs", len(plan.Jobs)))
	for r.nDone < len(r.order) {
		// Fetch the pool's wake-up channel BEFORE scanning: any release
		// by another plan after this point closes exactly this channel,
		// so waiting on it below cannot miss a freed unit.
		freed := r.pool.Freed()
		if r.firstErr == nil {
			r.dispatch()
		}
		msg, ok, err := r.await(freed)
		if err != nil {
			return nil, err
		}
		if ok {
			r.complete(msg)
		}
	}
	if r.firstErr != nil {
		return nil, r.firstErr
	}
	res, err := r.retime()
	if err != nil {
		return nil, err
	}
	if err := r.merge(res); err != nil {
		return nil, err
	}
	res.Wall = time.Since(r.start)
	span.End(obs.A("makespan", res.Makespan), obs.A("outTuples", res.Rows))
	return res, nil
}

// newPlanRun validates the plan's schedule and sets up the run state.
func newPlanRun(ctx context.Context, pl *Planner, plan *Plan, db *DB, keep int) (*planRun, error) {
	jobIdx := make(map[string]int, len(plan.Jobs))
	for i, pj := range plan.Jobs {
		jobIdx[pj.Name] = i
	}
	order, err := execOrder(plan, jobIdx)
	if err != nil {
		return nil, err
	}
	n := len(plan.Jobs)
	o := obs.FromContext(ctx)
	r := &planRun{
		pl: pl, plan: plan, db: db,
		o:         o,
		shard:     o.Shard("core:" + plan.Query.Name),
		start:     time.Now(),
		pool:      pl.Pool,
		order:     order,
		consumed:  make(map[string]bool, n),
		keep:      keep,
		fb:        newFeedback(pl, db),
		replanned: make(map[string]*PlannedJob),
		done:      make(chan jobDone),
		results:   make([]*mr.Result, n),
		started:   make([]bool, n),
		buildWall: make(map[string]time.Duration, n),
		produced:  make(map[string]*relation.Relation, n),
	}
	if r.pool == nil {
		r.pool = NewSharedUnitPool(pl.KP, nil)
	}
	for i := range plan.Jobs {
		for _, rel := range plan.Jobs[i].RelOrder {
			if _, ok := jobIdx[rel]; ok {
				r.consumed[rel] = true
			}
		}
	}
	if n-len(r.consumed) == 1 {
		for _, pj := range plan.Jobs {
			if !r.consumed[pj.Name] {
				r.resultJob = pj.Name
			}
		}
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r, nil
}

// ready reports whether every dependency of the slot has completed.
func (r *planRun) ready(s execSlot) bool {
	for _, d := range s.deps {
		if _, done := r.produced[d]; !done {
			return false
		}
	}
	return true
}

// anyReady reports whether some unstarted placement is ready — i.e.
// the plan is blocked on pool capacity, not on its own jobs.
func (r *planRun) anyReady() bool {
	for _, s := range r.order {
		if !r.started[s.idx] && r.ready(s) {
			return true
		}
	}
	return false
}

// dispatch starts every dispatchable placement, front to back: deps
// satisfied and allotment acquired from the pool. A job whose
// allotment exceeds the pool capacity is clamped, so the cluster-wide
// semaphore can always eventually admit it. A job that fails to build
// gives its units back, becomes the run's first error and ends the
// scan.
func (r *planRun) dispatch() {
	for _, s := range r.order {
		if r.started[s.idx] || !r.ready(s) {
			continue
		}
		units := min(s.units, r.pool.Capacity())
		if !r.pool.TryAcquire(units) {
			continue
		}
		if err := r.startJob(s, units); err != nil {
			r.pool.Release(units)
			r.firstErr = err
			r.cancel()
			return
		}
	}
}

// startJob builds the slot's planned job and runs it on its own
// goroutine under the units just acquired.
func (r *planRun) startJob(s execSlot, units int) error {
	idx := s.idx
	pj := &r.plan.Jobs[idx]
	// Runtime feedback: when the job reads produced intermediates,
	// re-derive its reducer count and skew handling from their measured
	// statistics (the shared plan is never mutated — replan returns a
	// copy).
	runJob := pj
	if rj, ok := r.fb.replan(pj); ok {
		runJob = rj
		r.replanned[pj.Name] = rj
		r.shard.Instant("replan", obs.A("job", pj.Name),
			obs.A("reducers", pj.Reducers), obs.A("newReducers", rj.Reducers))
	}
	buildStart := time.Now()
	span := r.shard.Start("build-job", obs.A("job", pj.Name), obs.A("kind", runJob.Kind.String()))
	job, cfg, err := r.pl.buildPlannedJob(runJob, r.db, r.produced)
	// The result job hashes and caps its output; a job feeding the
	// rid-merge keeps only its rows' rids.
	switch {
	case err != nil:
	case pj.Name == r.resultJob:
		job.Result, job.Keep = true, r.keep
	case r.resultJob == "" && !r.consumed[pj.Name]:
		err = projectRids(job, r.db)
	}
	if err != nil {
		span.End(obs.A("error", err.Error()))
		return err
	}
	span.End()
	r.buildWall[pj.Name] = time.Since(buildStart)
	if r.o.Tracing() && runJob.Skew != nil {
		r.traceHotKeys(pj.Name, runJob.Skew)
	}
	r.shard.Instant("dispatch", obs.A("job", pj.Name),
		obs.A("units", units), obs.A("wave", s.wave))
	r.started[idx] = true
	r.inflight++
	if r.inflight > r.maxInflight {
		r.maxInflight = r.inflight
	}
	go func() {
		res, err := mr.Run(r.ctx, cfg, job)
		r.done <- jobDone{idx: idx, units: units, res: res, err: err}
	}()
	return nil
}

// traceHotKeys records the job's hot-key handling: one "hot-key"
// instant per value in its skew plan, by relation and column set.
func (r *planRun) traceHotKeys(job string, plan *skew.JobPlan) {
	for _, rel := range slices.Sorted(maps.Keys(plan.Reports)) {
		for _, cols := range slices.Sorted(maps.Keys(plan.Reports[rel])) {
			for _, hk := range plan.Reports[rel][cols] {
				r.shard.Instant("hot-key", obs.A("job", job), obs.A("rel", rel),
					obs.A("cols", strings.ReplaceAll(cols, "\x1f", ",")),
					obs.A("value", fmt.Sprint(hk.Values)), obs.A("frac", hk.Frac))
			}
		}
	}
}

// await blocks until a job of this run finishes (ok) or the pool frees
// capacity (!ok: rescan). With nothing in flight it returns the run's
// first error if there is one; otherwise the plan is either waiting on
// other plans' units or cannot make progress at all.
func (r *planRun) await(freed <-chan struct{}) (msg jobDone, ok bool, err error) {
	if r.inflight == 0 {
		if r.firstErr != nil {
			return msg, false, r.firstErr
		}
		// A ready-but-undispatched job with nothing of ours in flight
		// means the pool's capacity is held by other plans: wait for any
		// release, then rescan. A pool only this plan draws on can't get
		// here with a ready job (idle capacity always admits the clamped
		// allotment), so it falls through to the stall error.
		if r.anyReady() {
			select {
			case <-freed:
				return msg, false, nil
			case <-r.ctx.Done():
				return msg, false, r.ctx.Err()
			}
		}
		return msg, false, fmt.Errorf("core: plan %s stalled with %d/%d jobs done (dependency cycle?)",
			r.plan.Query.Name, r.nDone, len(r.order))
	}
	select {
	case msg = <-r.done:
		return msg, true, nil
	case <-freed:
		// Units were released: rescan for newly admissible jobs.
		return msg, false, nil
	}
}

// complete returns a finished job's units and books its outcome: the
// first error cancels the run (the loop then only drains); a result is
// recorded at its plan position and measured for the feedback loop
// when a downstream job will read it.
func (r *planRun) complete(msg jobDone) {
	r.inflight--
	r.pool.Release(msg.units)
	if msg.err != nil {
		if r.firstErr == nil {
			r.firstErr = msg.err
			r.cancel()
		}
		return
	}
	r.results[msg.idx] = msg.res
	pj := &r.plan.Jobs[msg.idx]
	r.produced[pj.Name] = msg.res.Output
	r.shard.Instant("complete", obs.A("job", pj.Name),
		obs.A("shuffleBytes", msg.res.Metrics.ShuffleBytes),
		obs.A("outTuples", msg.res.Rows))
	r.nDone++
	if !r.consumed[pj.Name] {
		return
	}
	// Measure only outputs a downstream job will actually read — the
	// statistics pass is O(output) and pointless otherwise.
	r.fb.observe(pj.Name, msg.res)
}

// retime assembles the jobs' metrics deterministically in plan order
// and re-schedules their measured durations on the K_P units: the
// result carries every per-job total and the jobs' share of Makespan.
func (r *planRun) retime() (*ExecResult, error) {
	plan, kp := r.plan, r.pl.KP
	res := &ExecResult{
		JobMetrics:        make(map[string]mr.Metrics, len(plan.Jobs)),
		BuildWall:         r.buildWall,
		MaxConcurrentJobs: r.maxInflight,
		plan:              plan,
		replanJobs:        r.replanned,
	}
	for name := range r.replanned {
		res.Replanned = append(res.Replanned, name)
	}
	sort.Strings(res.Replanned)
	depsOf := make(map[string][]string, len(r.order))
	for _, s := range r.order {
		depsOf[plan.Jobs[s.idx].Name] = s.deps
	}
	tasks := make([]schedule.Task, 0, len(plan.Jobs))
	for i := range plan.Jobs {
		pj := &plan.Jobs[i]
		m := &r.results[i].Metrics
		res.JobMetrics[pj.Name] = *m
		res.ShuffleBytes += m.ShuffleBytes
		res.SpillBytes += m.SpillBytes
		res.SpillRuns += m.SpillRuns
		if m.PeakLiveBytes > res.PeakLiveBytes {
			res.PeakLiveBytes = m.PeakLiveBytes
		}
		res.TaskAttempts += m.MapAttempts + m.ReduceAttempts
		res.TaskFailures += m.MapFailures + m.ReduceFailures
		res.SpeculativeLaunched += m.SpeculativeLaunched
		res.SpeculativeWins += m.SpeculativeWins
		res.ChecksumFailures += m.ChecksumFailures
		res.FailoverReads += m.FailoverReads
		// Measured duration at the allotted units, scaled for the
		// re-scheduling pass.
		prof := make([]float64, kp)
		for k := 1; k <= kp; k++ {
			scale := 1.0
			if k < pj.Units {
				scale = float64(pj.Units) / float64(k)
			}
			prof[k-1] = m.Sim.Total * scale
		}
		tasks = append(tasks, schedule.Task{ID: pj.Name, Profile: prof, DependsOn: depsOf[pj.Name]})
	}
	sched, err := schedule.Schedule(tasks, kp)
	if err != nil {
		return nil, err
	}
	res.Makespan = sched.Makespan
	return res, nil
}

// merge joins the job outputs that are genuine partial results — a
// consumed intermediate is already folded into its consumer's output:
// it carries prefixed, not base-relation, rid columns and must not
// re-enter the merge — and adds the merge tree's cost to Makespan. The
// result's count and hash come from the result job when there is one.
// Otherwise the outputs hold only rids (projectRids): the tree's
// earlier steps join rid tuples, and its last, gatherMerge, gathers
// the result rows from the base relations, hashing and counting every
// one and keeping the first keep.
func (r *planRun) merge(res *ExecResult) error {
	var inputs []*relation.Relation
	var sizes []int64 // each input's ModeledSize, off its job's metrics
	var last *mr.Result
	for i := range r.plan.Jobs {
		if run := r.results[i]; !r.consumed[r.plan.Jobs[i].Name] {
			inputs = append(inputs, run.Output)
			sizes = append(sizes,
				int64(float64(run.Metrics.OutputRawBytes)*run.Output.VolumeMultiplier))
			last = run
		}
	}
	mergeStart := time.Now()
	span := r.shard.Start("plan-merge", obs.A("inputs", len(inputs)))
	var rowSum uint64
	final, rows, steps, err := mergeTree(r.plan.Query.Name, inputs, sizes, r.shard,
		func(name string, left, right *relation.Relation) (*relation.Relation, int, error) {
			out, n, sum, err := gatherMerge(name, left, right, r.db, r.keep)
			rowSum = sum
			return out, n, err
		})
	if err != nil {
		span.End(obs.A("error", err.Error()))
		return err
	}
	if len(steps) == 0 { // the one output is the result job's
		rows, rowSum = last.Rows, last.RowHashSum
	}
	span.End(obs.A("steps", len(steps)), obs.A("outTuples", rows))
	res.MergeWall = time.Since(mergeStart)
	// Charge the merge off the tree mergeTree actually performed, step
	// by step over the real operand sizes — matching the planner's
	// estimateMergeSteps policy rather than a plan-order chain.
	rates := mr.PaperRates()
	for _, st := range steps {
		res.MergeTime += cost.MergeCost(rates, st.LeftBytes, st.RightBytes)
	}
	res.Output = final
	res.Rows = rows
	res.Hash = relation.ContentHashOf(final.Schema, rows, rowSum)
	res.MergeCount = len(steps)
	res.Makespan += res.MergeTime
	return nil
}

// execOrder flattens the plan's schedule into dispatch order. Each
// slot carries its unit allotment and dependency set: the schedule's
// explicit DependsOn plus data dependencies inferred from a job whose
// relation order names another planned job's output (cascades sharing
// intermediate results). Plans without a schedule dispatch in plan
// order with data dependencies only.
func execOrder(plan *Plan, jobIdx map[string]int) ([]execSlot, error) {
	for i := range plan.Jobs {
		if pj := &plan.Jobs[i]; pj.Units < 1 {
			return nil, fmt.Errorf("core: job %s has %d units; must be >= 1", pj.Name, pj.Units)
		}
	}
	slotFor := func(i int, schedDeps []string, wave int) execSlot {
		pj := &plan.Jobs[i]
		deps := append([]string(nil), schedDeps...)
		seen := make(map[string]bool, len(deps))
		for _, d := range deps {
			seen[d] = true
		}
		for _, rel := range pj.RelOrder {
			if j, ok := jobIdx[rel]; ok && j != i && !seen[rel] {
				deps = append(deps, rel)
				seen[rel] = true
			}
		}
		return execSlot{idx: i, units: pj.Units, deps: deps, wave: wave}
	}
	if plan.Schedule == nil {
		order := make([]execSlot, 0, len(plan.Jobs))
		for i := range plan.Jobs {
			order = append(order, slotFor(i, nil, 0))
		}
		return order, nil
	}
	placements := plan.Schedule.ExecutionOrder()
	if len(placements) != len(plan.Jobs) {
		return nil, fmt.Errorf("core: schedule places %d tasks for %d planned jobs", len(placements), len(plan.Jobs))
	}
	order := make([]execSlot, 0, len(placements))
	for _, p := range placements {
		i, ok := jobIdx[p.TaskID]
		if !ok {
			return nil, fmt.Errorf("core: schedule places unknown job %q", p.TaskID)
		}
		order = append(order, slotFor(i, p.DependsOn, p.Wave))
	}
	return order, nil
}

// buildPlannedJob materialises one planned job against the database,
// resolving inputs against already-produced intermediate outputs
// first, and derives the job's engine configuration: map/reduce slot
// budgets capped at the unit allotment and a proportional share of the
// real worker goroutines (units/K_P of the machine).
func (pl *Planner) buildPlannedJob(pj *PlannedJob, db *DB, produced map[string]*relation.Relation) (*mr.Job, mr.Config, error) {
	rels := make([]*relation.Relation, len(pj.RelOrder))
	for i, name := range pj.RelOrder {
		if r, ok := produced[name]; ok {
			rels[i] = r
			continue
		}
		r, err := db.Relation(name)
		if err != nil {
			return nil, mr.Config{}, err
		}
		rels[i] = r
	}
	var job *mr.Job
	var err error
	switch pj.Kind {
	case KindHashEqui:
		job, err = BuildHashEquiJob(pj.Name, rels[0], rels[1], pj.Conds, pj.Reducers, pj.Skew)
	case KindShareGrid:
		job, err = BuildShareGridJob(pj.Name, rels, pj.Conds, pj.Reducers, pj.Skew)
	default:
		job, err = BuildThetaJob(pj.Name, rels, pj.Conds, pj.Reducers)
	}
	if err != nil {
		return nil, mr.Config{}, err
	}
	cfg := pl.Config
	units := pj.Units
	cfg.MapSlots = min(cfg.MapSlots, units)
	cfg.ReduceSlots = min(cfg.ReduceSlots, units)
	// Real goroutine budget: the job's share of the machine, scaled by
	// its share of the K_P units, so concurrent jobs split the CPUs the
	// way the schedule splits the cluster.
	base := cfg.MaxParallelWorkers
	if base <= 0 {
		base = runtime.NumCPU()
	}
	if pl.KP > 0 && units < pl.KP {
		if w := base * units / pl.KP; w < base {
			base = max(1, w)
		}
	}
	cfg.MaxParallelWorkers = base
	return job, cfg, nil
}
