package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/schedule"
	"repro/internal/skew"
)

// ExecResult is the outcome of executing a plan.
type ExecResult struct {
	Output *relation.Relation
	// Makespan is the measured evaluation time: the job set re-timed
	// with simulated durations plus the merge tree (Fig. 4 layout).
	Makespan   float64
	JobMetrics map[string]mr.Metrics
	MergeCount int
	// MergeTime is the merge component of Makespan, charged per
	// MergeAll's actual pair-merge tree (one MergeCost per executed
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
	// Measured exports the per-intermediate statistics the feedback
	// loop synthesized during this execution (keyed by producing job
	// name): a resident server persists them and warm-starts later
	// plans via Planner.WarmRevise. Nil when nothing was observed.
	Measured map[string]MeasuredStat
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
	// CheckpointSaved lists (sorted) the intermediates persisted via
	// PlanOptions.Checkpoint; CheckpointRestored lists the jobs that
	// were NOT executed because PlanOptions.ResumeFrom found their
	// checkpoint. A restored job's JobMetrics entry is synthetic zero.
	CheckpointSaved    []string
	CheckpointRestored []string
	// Wall is the MEASURED wall-clock duration of the whole execution
	// (jobs + merge) on this machine — the real-time counterpart of the
	// modeled Makespan. Per-job measured breakdowns live in
	// JobMetrics[name].Wall. Wall varies between runs; determinism
	// assertions must ignore it.
	Wall time.Duration
	// MergeWall is the measured wall-clock share of Wall spent in the
	// final merge tree (modeled counterpart: MergeTime).
	MergeWall time.Duration

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
	return pl.ExecuteContext(context.Background(), plan, db)
}

// execSlot is one dispatchable planned job: its index in plan.Jobs,
// its unit allotment on the K_P semaphore, and the names of the jobs
// that must complete first (schedule dependencies plus any planned job
// whose output this job reads).
type execSlot struct {
	idx   int
	units int
	deps  []string
}

// anyReady reports whether some unstarted placement has every
// dependency completed — i.e. the plan is blocked on pool capacity,
// not on its own jobs.
func anyReady(order []execSlot, started []bool, completed map[string]bool, plan *Plan) bool {
	for _, s := range order {
		if started[s.idx] {
			continue
		}
		ready := true
		for _, d := range s.deps {
			if !completed[d] {
				ready = false
				break
			}
		}
		if ready {
			return true
		}
	}
	return false
}

// effectiveUnits is the job's unit allotment with the shared fallback:
// Units when set, else Reducers, clamped to >= 1. Every execution-side
// consumer (dispatch, config derivation, re-timing) must agree on it.
func (pj *PlannedJob) effectiveUnits() int {
	u := pj.Units
	if u < 1 {
		u = pj.Reducers
	}
	if u < 1 {
		u = 1
	}
	return u
}

// ExecuteContext drives the planned jobs through the schedule
// placement for real, concurrently. Placements are dispatched in
// execution order; each job waits until its dependencies have
// completed and its unit allotment fits in the free capacity of the
// K_P-unit semaphore, then runs on its own goroutine with map/reduce
// slot budgets (and a proportional share of the machine's real
// worker goroutines) taken from its assigned units. The first job
// error cancels the context and aborts the remaining jobs.
//
// Execution is deterministic for a fixed plan: job outputs and metrics
// are collected by plan position, outputs merge in plan order, and
// each mr.Run is itself deterministic — so the result relation and the
// byte-level metrics are identical regardless of how the jobs
// interleave on the wall clock.
func (pl *Planner) ExecuteContext(ctx context.Context, plan *Plan, db *DB) (*ExecResult, error) {
	if len(plan.Jobs) == 0 {
		return nil, fmt.Errorf("core: empty plan")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jobIdx := make(map[string]int, len(plan.Jobs))
	for i, pj := range plan.Jobs {
		jobIdx[pj.Name] = i
	}
	order, err := execOrder(plan, jobIdx)
	if err != nil {
		return nil, err
	}

	// Observability: the dispatch loop below runs entirely on this
	// goroutine, so one shard serves every plan-level instant/span;
	// each mr.Run picks the Obs up from ctx and shards per worker.
	o := obs.FromContext(ctx)
	execStart := time.Now()
	execShard := o.Shard("core:" + plan.Query.Name)
	execSpan := execShard.Start("execute",
		obs.A("query", plan.Query.Name), obs.A("jobs", len(plan.Jobs)))
	wave := make(map[string]int, len(plan.Jobs))
	if plan.Schedule != nil {
		for _, p := range plan.Schedule.ExecutionOrder() {
			wave[p.TaskID] = p.Wave
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// consumed[name] marks a planned job whose output another planned
	// job reads (a cascade intermediate): the only jobs worth measuring
	// for feedback re-planning, and the outputs that must not re-enter
	// the final merge (their consumer's output subsumes them).
	consumed := make(map[string]bool, len(plan.Jobs))
	for i := range plan.Jobs {
		for _, rel := range plan.Jobs[i].RelOrder {
			if _, ok := jobIdx[rel]; ok {
				consumed[rel] = true
			}
		}
	}
	fb := newFeedback(pl, db)
	replanned := make(map[string]bool)
	replanJobs := make(map[string]*PlannedJob)

	type doneMsg struct {
		idx   int
		units int
		res   *mr.Result
		err   error
	}
	done := make(chan doneMsg)
	results := make([]*mr.Result, len(plan.Jobs))
	completed := make(map[string]bool, len(plan.Jobs))
	started := make([]bool, len(plan.Jobs))
	produced := make(map[string]*relation.Relation, len(plan.Jobs))
	// The unit pool arbitrates the K_P processing units. The default is
	// plan-private (the historical semaphore); a server installs a
	// SharedUnitPool so concurrent plans contend for one machine-wide
	// K_P budget.
	pool := pl.Pool
	if pool == nil {
		pool = newPrivatePool(pl.KP)
	}
	inflight, maxInflight, nDone := 0, 0, 0
	var firstErr error

	// Cascade resume: restore whatever intermediates the checkpoint
	// store still holds for the failed run before dispatching anything,
	// so only un-checkpointed jobs re-execute. A restored job completes
	// instantly with synthetic zero metrics and a nil trace; only
	// consumed intermediates are ever checkpointed, so terminal jobs
	// always re-run. A checkpoint that fails to load is a miss, as one
	// that fails to save is no checkpoint: the job re-executes.
	var restoredJobs, savedJobs []string
	if pl.Opts.Checkpoint != nil && pl.Opts.ResumeFrom != "" {
		for i := range plan.Jobs {
			pj := &plan.Jobs[i]
			if !consumed[pj.Name] {
				continue
			}
			r, ok, err := pl.Opts.Checkpoint.LoadIntermediate(pl.Opts.ResumeFrom, pj.Name)
			if err != nil {
				o.Counter("core/checkpoint_errors").Add(1)
				execShard.Instant("checkpoint-error", obs.A("job", pj.Name), obs.A("error", err.Error()))
				continue
			}
			if !ok {
				continue
			}
			results[i] = &mr.Result{Output: r}
			started[i] = true
			completed[pj.Name] = true
			produced[pj.Name] = r
			restoredJobs = append(restoredJobs, pj.Name)
			nDone++
			execShard.Instant("checkpoint-restore", obs.A("job", pj.Name),
				obs.A("tuples", r.Cardinality()))
		}
	}

	for nDone < len(order) {
		// Fetch the pool's wake-up channel BEFORE scanning: any release
		// by another plan after this point closes exactly this channel,
		// so waiting on it below cannot miss a freed unit. Nil for
		// private pools (capacity only frees via our own done channel).
		freed := pool.Freed()
		if firstErr == nil {
			// Start every dispatchable placement, front to back: deps
			// satisfied and allotment acquired from the pool. A job whose
			// allotment exceeds the pool capacity is clamped, so the
			// cluster-wide semaphore can always eventually admit it.
			for _, s := range order {
				if started[s.idx] {
					continue
				}
				units := minInt(s.units, pool.Capacity())
				ready := true
				for _, d := range s.deps {
					if !completed[d] {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				if !pool.TryAcquire(units) {
					continue
				}
				pj := &plan.Jobs[s.idx]
				// Runtime feedback: when the job reads produced
				// intermediates, re-derive its reducer count and skew
				// handling from their measured statistics (the shared
				// plan is never mutated — replan returns a copy).
				runJob := pj
				if !pl.Opts.DisableReplan {
					if rj, ok := fb.replan(pj); ok {
						runJob = rj
						replanned[pj.Name] = true
						replanJobs[pj.Name] = rj
						execShard.Instant("replan", obs.A("job", pj.Name),
							obs.A("reducers", pj.Reducers), obs.A("newReducers", rj.Reducers))
					}
				}
				job, cfg, err := pl.buildPlannedJob(runJob, db, produced)
				if err != nil {
					pool.Release(units)
					firstErr = err
					cancel()
					break
				}
				// Hot-key routing decisions surface on the partitioner's
				// own shard: the lazy grid layout runs under sync.Once
				// inside one mr worker, so a dedicated shard stays
				// single-writer (see skew.EquiPartitioner.Obs).
				if ep, ok := job.Partitioner.(*skew.EquiPartitioner); ok && o.Tracing() {
					ep.Obs = o.Shard("skew:" + pj.Name)
				}
				execShard.Instant("dispatch", obs.A("job", pj.Name),
					obs.A("units", units), obs.A("wave", wave[pj.Name]))
				started[s.idx] = true
				inflight++
				if inflight > maxInflight {
					maxInflight = inflight
				}
				go func(idx, units int, cfg mr.Config, job *mr.Job) {
					res, err := mr.Run(ctx, cfg, pl.Params.Timer(), job)
					done <- doneMsg{idx: idx, units: units, res: res, err: err}
				}(s.idx, units, cfg, job)
			}
		}
		if inflight == 0 {
			if firstErr != nil {
				return nil, firstErr
			}
			// A ready-but-undispatched job with nothing of ours in flight
			// means a shared pool's capacity is held by other plans: wait
			// for any release, then rescan. A private pool can't get here
			// with a ready job (idle capacity always admits the clamped
			// allotment), so freed == nil falls through to the stall error.
			if freed != nil && anyReady(order, started, completed, plan) {
				select {
				case <-freed:
					continue
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return nil, fmt.Errorf("core: plan %s stalled with %d/%d jobs done (dependency cycle?)",
				plan.Query.Name, nDone, len(order))
		}
		var msg doneMsg
		select {
		case msg = <-done:
		case <-freed:
			// Another plan released units (freed is nil — blocking forever
			// — for private pools): rescan for newly admissible jobs.
			continue
		}
		inflight--
		pool.Release(msg.units)
		if msg.err != nil {
			if firstErr == nil {
				firstErr = msg.err
				cancel()
			}
			continue
		}
		results[msg.idx] = msg.res
		pj := &plan.Jobs[msg.idx]
		completed[pj.Name] = true
		produced[pj.Name] = msg.res.Output
		execShard.Instant("complete", obs.A("job", pj.Name),
			obs.A("shuffleBytes", msg.res.Metrics.ShuffleBytes),
			obs.A("outTuples", msg.res.Output.Cardinality()))
		// Measure only outputs a downstream job will actually read —
		// the statistics pass is O(output) and pointless otherwise.
		if !pl.Opts.DisableReplan && consumed[pj.Name] {
			fb.observe(pj.Name, msg.res)
		}
		// Checkpoint completed intermediates so a later failure in the
		// cascade can resume from here. Save errors degrade gracefully:
		// the run proceeds un-checkpointed (resume just re-executes).
		if pl.Opts.Checkpoint != nil && consumed[pj.Name] {
			if err := pl.Opts.Checkpoint.SaveIntermediate(plan.Query.Name, pj.Name, msg.res.Output); err != nil {
				o.Counter("core/checkpoint_errors").Add(1)
				execShard.Instant("checkpoint-error", obs.A("job", pj.Name), obs.A("error", err.Error()))
			} else {
				savedJobs = append(savedJobs, pj.Name)
				execShard.Instant("checkpoint-save", obs.A("job", pj.Name))
			}
		}
		nDone++
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Assemble deterministically in plan order.
	res := &ExecResult{
		JobMetrics:        make(map[string]mr.Metrics, len(plan.Jobs)),
		MaxConcurrentJobs: maxInflight,
		Measured:          fb.measured(),
	}
	outputs := make([]*relation.Relation, len(plan.Jobs))
	tasks := make([]schedule.Task, 0, len(plan.Jobs))
	depsOf := make(map[string][]string, len(order))
	for _, s := range order {
		depsOf[plan.Jobs[s.idx].Name] = s.deps
	}
	for i := range plan.Jobs {
		pj := &plan.Jobs[i]
		run := results[i]
		res.JobMetrics[pj.Name] = run.Metrics
		res.ShuffleBytes += run.Metrics.ShuffleBytes
		res.SpillBytes += run.Metrics.SpillBytes
		res.SpillRuns += run.Metrics.SpillRuns
		if run.Metrics.PeakLiveBytes > res.PeakLiveBytes {
			res.PeakLiveBytes = run.Metrics.PeakLiveBytes
		}
		res.TaskAttempts += run.Metrics.MapAttempts + run.Metrics.ReduceAttempts
		res.TaskFailures += run.Metrics.MapFailures + run.Metrics.ReduceFailures
		res.SpeculativeLaunched += run.Metrics.SpeculativeLaunched
		res.SpeculativeWins += run.Metrics.SpeculativeWins
		res.ChecksumFailures += run.Metrics.ChecksumFailures
		res.FailoverReads += run.Metrics.FailoverReads
		outputs[i] = run.Output
		// Measured duration at the allotted units, scaled for the
		// re-scheduling pass.
		units := pj.effectiveUnits()
		dur := run.Metrics.Sim.Total
		prof := make([]float64, pl.KP)
		for k := 1; k <= pl.KP; k++ {
			scale := 1.0
			if k < units {
				scale = float64(units) / float64(k)
			}
			prof[k-1] = dur * scale
		}
		tasks = append(tasks, schedule.Task{ID: pj.Name, Profile: prof, DependsOn: depsOf[pj.Name]})
	}
	sched, err := schedule.Schedule(tasks, pl.KP)
	if err != nil {
		return nil, err
	}
	// Merge the job outputs that are genuine partial results: a
	// consumed intermediate is already folded into its consumer's
	// output — it carries prefixed, not base-relation, rid columns and
	// must not re-enter the merge.
	var mergeInputs []*relation.Relation
	var mergeSizes []int64 // each input's ModeledSize, off its job's metrics
	for i := range plan.Jobs {
		if !consumed[plan.Jobs[i].Name] {
			mergeInputs = append(mergeInputs, outputs[i])
			mergeSizes = append(mergeSizes,
				int64(float64(results[i].Metrics.OutputRawBytes)*outputs[i].VolumeMultiplier))
		}
	}
	mergeStart := time.Now()
	mergeSpan := execShard.Start("plan-merge", obs.A("inputs", len(mergeInputs)))
	final, steps, err := mergeAll(plan.Query.Name, mergeInputs, mergeSizes, execShard)
	if err != nil {
		mergeSpan.End(obs.A("error", err.Error()))
		return nil, err
	}
	mergeSpan.End(obs.A("steps", len(steps)), obs.A("outTuples", final.Cardinality()))
	res.MergeWall = time.Since(mergeStart)
	// Charge the merge off the tree MergeAll actually performed, step
	// by step over the real operand sizes — matching the planner's
	// estimateMergeSteps policy rather than a plan-order chain.
	var mergeTime float64
	for _, st := range steps {
		mergeTime += pl.Params.MergeCost(st.LeftBytes, st.RightBytes)
	}
	for name := range replanned {
		res.Replanned = append(res.Replanned, name)
	}
	sort.Strings(res.Replanned)
	res.CheckpointSaved = savedJobs
	sort.Strings(res.CheckpointSaved)
	res.CheckpointRestored = restoredJobs
	sort.Strings(res.CheckpointRestored)
	res.Output = final
	res.MergeCount = len(steps)
	res.MergeTime = mergeTime
	res.Makespan = sched.Makespan + mergeTime
	res.Wall = time.Since(execStart)
	res.plan = plan
	res.replanJobs = replanJobs
	execSpan.End(obs.A("makespan", res.Makespan), obs.A("outTuples", final.Cardinality()))
	return res, nil
}

// execOrder flattens the plan's schedule into dispatch order. Each
// slot carries its unit allotment and dependency set: the schedule's
// explicit DependsOn plus data dependencies inferred from a job whose
// relation order names another planned job's output (cascades sharing
// intermediate results). Plans without a schedule dispatch in plan
// order with data dependencies only.
func execOrder(plan *Plan, jobIdx map[string]int) ([]execSlot, error) {
	slotFor := func(i int, schedDeps []string) execSlot {
		pj := &plan.Jobs[i]
		units := pj.effectiveUnits()
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
		return execSlot{idx: i, units: units, deps: deps}
	}
	if plan.Schedule == nil {
		order := make([]execSlot, 0, len(plan.Jobs))
		for i := range plan.Jobs {
			order = append(order, slotFor(i, nil))
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
		order = append(order, slotFor(i, p.DependsOn))
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
		job, err = BuildHashEquiJobSkew(pj.Name, rels[0], rels[1], pj.Conds, pj.Reducers, pj.Skew)
	case KindShareGrid:
		job, err = BuildShareGridJobSkew(pj.Name, rels, pj.Conds, pj.Reducers, pj.Skew)
	default:
		job, _, err = BuildThetaJob(pj.Name, rels, pj.Conds, pj.Reducers, pl.Opts.MaxCells)
	}
	if err != nil {
		return nil, mr.Config{}, err
	}
	cfg := pl.Config
	units := pj.effectiveUnits()
	cfg.MapSlots = minInt(cfg.MapSlots, units)
	cfg.ReduceSlots = minInt(cfg.ReduceSlots, units)
	// Real goroutine budget: the job's share of the machine, scaled by
	// its share of the K_P units, so concurrent jobs split the CPUs the
	// way the schedule splits the cluster.
	base := cfg.MaxParallelWorkers
	if base <= 0 {
		base = runtime.NumCPU()
	}
	if pl.KP > 0 && units < pl.KP {
		if w := base * units / pl.KP; w < base {
			base = maxIntc(1, w)
		}
	}
	cfg.MaxParallelWorkers = base
	return job, cfg, nil
}

// JobKind distinguishes the physical operators a planned job can use.
type JobKind uint8

const (
	// KindHilbertTheta is Algorithm 1: the cross-product hyper-cube of
	// the job's relations partitioned by a Hilbert curve; handles any
	// theta conditions.
	KindHilbertTheta JobKind = iota
	// KindHashEqui is the classic repartition equi-join: usable when
	// every condition of the job is an equality between the same two
	// relations — the join key becomes the (composite) partition key
	// with no tuple duplication.
	KindHashEqui
	// KindShareGrid is the Afrati–Ullman share-based one-job multiway
	// join [2] with reducer-side theta residuals: usable when the
	// job's equality conditions connect all of its relations.
	KindShareGrid
)

// String names the kind.
func (k JobKind) String() string {
	switch k {
	case KindHilbertTheta:
		return "hilbert-theta"
	case KindHashEqui:
		return "hash-equi"
	case KindShareGrid:
		return "share-grid"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OrderRelations produces a join order for the relations of a
// conjunction in which every relation after the first shares at least
// one condition with an earlier relation, so the reduce-side
// backtracking join can prune as it extends. Chain-shaped condition
// sets yield the chain order.
func OrderRelations(conds predicate.Conjunction) ([]string, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("core: empty conjunction")
	}
	rels := conds.Relations()
	deg := make(map[string]int, len(rels))
	for _, c := range conds {
		deg[c.Left]++
		deg[c.Right]++
	}
	// Start from a minimum-degree relation (a chain endpoint when the
	// set is a chain), breaking ties lexicographically.
	start := rels[0]
	for _, r := range rels {
		if deg[r] < deg[start] || (deg[r] == deg[start] && r < start) {
			start = r
		}
	}
	order := []string{start}
	placed := map[string]bool{start: true}
	for len(order) < len(rels) {
		// Next: an unplaced relation connected to a placed one,
		// preferring the one with most conditions into the placed set.
		bestRel, bestLinks := "", 0
		for _, r := range rels {
			if placed[r] {
				continue
			}
			links := 0
			for _, c := range conds {
				if other, ok := c.Other(r); ok && placed[other] {
					links++
				}
			}
			if links > bestLinks || (links == bestLinks && links > 0 && (bestRel == "" || r < bestRel)) {
				bestRel, bestLinks = r, links
			}
		}
		if bestRel == "" {
			return nil, fmt.Errorf("core: conjunction %s is not connected", conds)
		}
		order = append(order, bestRel)
		placed[bestRel] = true
	}
	return order, nil
}

// AllEquiSamePair reports whether every condition is an equality
// between the same two relations — the KindHashEqui precondition.
func AllEquiSamePair(conds predicate.Conjunction) bool {
	if len(conds) == 0 {
		return false
	}
	rels := conds.Relations()
	if len(rels) != 2 {
		return false
	}
	for _, c := range conds {
		if !c.Op.IsEquality() {
			return false
		}
	}
	return true
}

// prefixedSchema concatenates relation schemas with "rel." prefixes,
// the output schema of a join job over the ordered relations.
func prefixedSchema(rels []*relation.Relation) *relation.Schema {
	var cols []relation.Column
	for _, r := range rels {
		for i := 0; i < r.Schema.Len(); i++ {
			c := r.Schema.Column(i)
			cols = append(cols, relation.Column{Name: r.Name + "." + c.Name, Kind: c.Kind})
		}
	}
	return relation.MustSchema(cols...)
}

// prefixedDicts concatenates the relations' per-column dictionaries in
// prefixedSchema's column order — the OutputDicts of a join job over
// the ordered relations. Returns nil when no input column has one.
func prefixedDicts(rels []*relation.Relation) []*relation.Dict {
	var out []*relation.Dict
	any := false
	for _, r := range rels {
		for i := 0; i < r.Schema.Len(); i++ {
			d := r.DictOf(i)
			if d != nil {
				any = true
			}
			out = append(out, d)
		}
	}
	if !any {
		return nil
	}
	return out
}

// resolveColumn finds "relName.col" inside r: either r IS relName (a
// base relation, bare column names) or r is a join output carrying
// prefixed columns.
func resolveColumn(r *relation.Relation, relName, col string) (int, bool) {
	if idx, ok := r.Schema.Lookup(relName + "." + col); ok {
		return idx, true
	}
	if r.Name == relName {
		if idx, ok := r.Schema.Lookup(col); ok {
			return idx, true
		}
	}
	return 0, false
}

// boundCond is a condition compiled against the job's relation order:
// hi is the later ordinal (the extension step that can evaluate it),
// lo the earlier.
type boundCond struct {
	cond   predicate.Condition
	lo, hi int
	loCol  int // column ordinal in relation lo
	hiCol  int // column ordinal in relation hi
	// loOff/hiOff are the additive constants on each side, oriented so
	// that the predicate reads: lo.val+loOff op hi.val+hiOff with op
	// oriented lo→hi.
	loOff, hiOff float64
	op           predicate.Op
}

func bindConditions(conds predicate.Conjunction, rels []*relation.Relation) ([]boundCond, error) {
	ordinal := make(map[string]int, len(rels))
	for i, r := range rels {
		ordinal[r.Name] = i
	}
	var out []boundCond
	for _, c := range conds {
		li, ok := ordinal[c.Left]
		if !ok {
			return nil, fmt.Errorf("core: condition %s references %q outside the job", c, c.Left)
		}
		ri, ok := ordinal[c.Right]
		if !ok {
			return nil, fmt.Errorf("core: condition %s references %q outside the job", c, c.Right)
		}
		oriented := c
		lo, hi := li, ri
		if li > ri {
			oriented = c.Reversed()
			lo, hi = ri, li
		}
		loCol, ok := resolveColumn(rels[lo], oriented.Left, oriented.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("core: condition %s: no column %s.%s", c, oriented.Left, oriented.LeftColumn)
		}
		hiCol, ok := resolveColumn(rels[hi], oriented.Right, oriented.RightColumn)
		if !ok {
			return nil, fmt.Errorf("core: condition %s: no column %s.%s", c, oriented.Right, oriented.RightColumn)
		}
		out = append(out, boundCond{
			cond: c, lo: lo, hi: hi,
			loCol: loCol, hiCol: hiCol,
			loOff: oriented.LeftOffset, hiOff: oriented.RightOffset,
			op: oriented.Op,
		})
	}
	return out, nil
}

// ridOrdinal returns the RowIDColumn ordinal for a base or prefixed
// relation.
func ridOrdinal(r *relation.Relation) (int, error) {
	if idx, ok := resolveColumn(r, r.Name, RowIDColumn); ok {
		return idx, nil
	}
	// Join outputs: any column ending in ".rid" — prefer the first.
	for i := 0; i < r.Schema.Len(); i++ {
		name := r.Schema.Column(i).Name
		if len(name) > len(RowIDColumn) && name[len(name)-len(RowIDColumn)-1:] == "."+RowIDColumn {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: relation %s lacks a %s column", r.Name, RowIDColumn)
}

// BuildThetaJob constructs the Algorithm 1 MapReduce job: every tuple
// is routed to the components its cell coordinate touches; reducers
// backtrack over the per-relation groups, verify the conditions, and
// emit exactly the combinations whose hyper-cube cell falls inside
// their own component.
func BuildThetaJob(name string, rels []*relation.Relation, conds predicate.Conjunction, kr, maxCells int) (*mr.Job, *Partitioner, error) {
	if len(rels) < 2 {
		return nil, nil, fmt.Errorf("core: theta job needs >= 2 relations")
	}
	cards := make([]int, len(rels))
	ridIdx := make([]int, len(rels))
	for i, r := range rels {
		if r.Cardinality() == 0 {
			// An empty input empties the join; return a trivial job.
			return emptyJob(name, rels, kr), nil, nil
		}
		cards[i] = r.Cardinality()
		ri, err := ridOrdinal(r)
		if err != nil {
			return nil, nil, err
		}
		ridIdx[i] = ri
	}
	part, err := NewPartitioner(cards, kr, maxCells)
	if err != nil {
		return nil, nil, err
	}
	bound, err := bindConditions(conds, rels)
	if err != nil {
		return nil, nil, err
	}
	salt := jobSalt(name)

	inputs := make([]mr.Input, len(rels))
	for i := range rels {
		dim := i
		rid := ridIdx[i]
		card := cards[i]
		inputs[i] = mr.Input{
			Rel: rels[i],
			Map: func(t relation.Tuple, emit mr.Emitter) {
				id := tupleGlobalID(t[rid], card, salt, dim)
				for _, comp := range part.ComponentsOf(dim, id) {
					emit(uint64(comp), uint8(dim), t)
				}
			},
		}
	}
	reduce := makeThetaReducer(rels, bound, part, ridIdx, cards, salt)
	return &mr.Job{
		Name:         name,
		Inputs:       inputs,
		Reduce:       reduce,
		NumReducers:  kr,
		Partition:    mr.IdentityPartition,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}, part, nil
}

func emptyJob(name string, rels []*relation.Relation, kr int) *mr.Job {
	inputs := make([]mr.Input, len(rels))
	for i := range rels {
		inputs[i] = mr.Input{Rel: rels[i], Map: func(t relation.Tuple, emit mr.Emitter) {}}
	}
	return &mr.Job{
		Name:         name,
		Inputs:       inputs,
		Reduce:       func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {},
		NumReducers:  kr,
		Partition:    mr.IdentityPartition,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}
}

// jobSalt derives the ID-randomisation salt from the job name.
func jobSalt(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// tupleGlobalID implements Algorithm 1's "GlobalID ← unified random
// selection": a salted hash of the row ID, uniform over [0, card) and
// identical in map and reduce phases.
func tupleGlobalID(rid relation.Value, card int, salt uint64, dim int) uint64 {
	if card <= 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [10]byte
	v := uint64(rid.Int64())
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	buf[8] = byte(salt)
	buf[9] = byte(dim)
	h.Write(buf[:])
	x := h.Sum64() ^ (salt * 0x9e3779b97f4a7c15)
	return x % uint64(card)
}

// makeThetaReducer compiles the backtracking join executed inside each
// component. Condition evaluation is delegated to the shared indexed
// evaluator (joineval.go): per reduce group, extension steps probe
// hash indexes on equality conditions and intersected sorted-run
// ranges on inequality conditions, comparing normalized int64 sort
// keys instead of boxed values. The final membership check (does the
// combination's cell belong to this component?) guarantees each result
// is emitted by exactly one reducer.
func makeThetaReducer(rels []*relation.Relation, bound []boundCond, part *Partitioner, ridIdx, cards []int, salt uint64) mr.ReduceFunc {
	m := len(rels)
	je := newJoinEval(rels, bound)
	return func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
		comp := int32(key)
		total := 0
		for _, g := range groups {
			if len(g) == 0 {
				return // some dimension absent: no combination possible
			}
			total += len(g)
		}
		// Cell coordinates of every tuple, one exactly sized array cut
		// per dimension, then the ownership check's two scratch vectors.
		flat := make([]uint32, total+2*m)
		coords := make([][]uint32, m)
		for dim, g := range groups {
			coords[dim], flat = flat[:len(g):len(g)], flat[len(g):]
			for i, t := range g {
				id := tupleGlobalID(t[ridIdx[dim]], cards[dim], salt, dim)
				coords[dim][i] = part.CellCoord(dim, id)
			}
		}
		axes, hbuf := flat[:m], flat[m:]
		parts := make([]relation.Tuple, m)
		ge := je.newGroupEval(groups)
		ge.run(ctx, func(sel []int32) {
			// Ownership check: emit only when this component owns the
			// combination's cell.
			for i := 0; i < m; i++ {
				axes[i] = coords[i][sel[i]]
			}
			if part.componentOfAxes(axes, hbuf) != comp {
				return
			}
			for i := 0; i < m; i++ {
				parts[i] = groups[i][sel[i]]
			}
			ctx.EmitConcat(parts...)
		})
	}
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

func totalArity(rels []*relation.Relation) int {
	n := 0
	for _, r := range rels {
		n += r.Schema.Len()
	}
	return n
}

// BuildHashEquiJob constructs the classic repartition equi-join for a
// conjunction of equalities between exactly two relations: tuples hash
// on the composite key, no duplication.
func BuildHashEquiJob(name string, left, right *relation.Relation, conds predicate.Conjunction, kr int) (*mr.Job, error) {
	return BuildHashEquiJobSkew(name, left, right, conds, kr, nil)
}

// BuildHashEquiJobSkew is BuildHashEquiJob with optional heavy-hitter
// handling: for each hot join-key value in the plan, the left side's
// tuples split across a Rows sub-grid of reducers by content hash and
// the right side replicates across it (and symmetrically with Cols
// when the right side is hot), per SharesSkew. Reducer-side logic is
// unchanged — each sub-reducer joins its fragment against the
// replicated side, and fragments are disjoint, so the output is the
// same set of tuples with the hot key's work spread evenly.
// Single-condition keys take their splits from the plan's per-column
// reports; composite (multi-condition) keys from its joint HotGroups,
// hashed with the same composite key the map side shuffles on. A nil
// plan reproduces BuildHashEquiJob exactly.
func BuildHashEquiJobSkew(name string, left, right *relation.Relation, conds predicate.Conjunction, kr int, plan *skew.JobPlan) (*mr.Job, error) {
	if !AllEquiSamePair(conds) {
		return nil, fmt.Errorf("core: conditions %s are not a two-relation equi conjunction", conds)
	}
	// Orient every condition left→right.
	type keyCol struct {
		col int
		off float64
	}
	var lCols, rCols []keyCol
	var codeKeys []bool
	var oriented []predicate.Condition
	for _, c := range conds {
		oc := c
		if oc.Left != left.Name {
			oc = c.Reversed()
		}
		lc, ok := resolveColumn(left, oc.Left, oc.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("core: no column %s.%s", oc.Left, oc.LeftColumn)
		}
		rc, ok := resolveColumn(right, oc.Right, oc.RightColumn)
		if !ok {
			return nil, fmt.Errorf("core: no column %s.%s", oc.Right, oc.RightColumn)
		}
		lCols = append(lCols, keyCol{lc, oc.LeftOffset})
		rCols = append(rCols, keyCol{rc, oc.RightOffset})
		// Interned shuffle keys: when both sides of a condition share
		// the same dictionary (self-join aliases do), the 8-byte code
		// replaces the string bytes in the composite hash. Distinct
		// dictionaries assign unrelated codes to equal strings, so the
		// fast path is gated on pointer identity.
		lD, rD := left.DictOf(lc), right.DictOf(rc)
		codeKeys = append(codeKeys, lD != nil && lD == rD)
		oriented = append(oriented, oc)
	}
	// writeKeyPart appends one key column's contribution to the
	// composite FNV hash: the dictionary code when the shared-dict fast
	// path applies and the value is interned, the textual form
	// otherwise. Map-side hashKey and the hot-key groupKey must agree
	// byte-for-byte, so both go through here.
	writeKeyPart := func(h hash.Hash64, v relation.Value, code bool) {
		if code {
			if c, ok := v.DictCode(); ok {
				var cb [8]byte
				binary.LittleEndian.PutUint64(cb[:], uint64(c))
				h.Write(cb[:])
				h.Write([]byte{0x1f})
				return
			}
		}
		h.Write([]byte(v.String()))
		h.Write([]byte{0x1f})
	}
	hashKey := func(t relation.Tuple, cols []keyCol) uint64 {
		h := fnv.New64a()
		for i, kc := range cols {
			writeKeyPart(h, t[kc.col].Add(kc.off), codeKeys[i])
		}
		return h.Sum64()
	}
	var partitioner mr.Partitioner
	if plan != nil {
		// A hot value combination's shuffle key: the same composite
		// hash the map side emits (hashKey over the condition-ordered
		// columns with their offsets applied).
		groupKey := func(vals []relation.Value, cols []keyCol) uint64 {
			h := fnv.New64a()
			for i, kc := range cols {
				writeKeyPart(h, vals[i].Add(kc.off), codeKeys[i])
			}
			return h.Sum64()
		}
		type frac2 struct{ l, r float64 }
		hot := make(map[uint64]frac2)
		if len(oriented) == 1 {
			oc := oriented[0]
			for _, hk := range plan.Hot(oc.Left, oc.LeftColumn) {
				k := groupKey([]relation.Value{hk.Value}, lCols)
				f := hot[k]
				if hk.Frac > f.l {
					f.l = hk.Frac
				}
				hot[k] = f
			}
			for _, hk := range plan.Hot(oc.Right, oc.RightColumn) {
				k := groupKey([]relation.Value{hk.Value}, rCols)
				f := hot[k]
				if hk.Frac > f.r {
					f.r = hk.Frac
				}
				hot[k] = f
			}
		} else {
			// Composite key: joint heavy hitters per side, stored by
			// the planner under the condition-ordered column vectors.
			lNames := make([]string, len(oriented))
			rNames := make([]string, len(oriented))
			for i, oc := range oriented {
				lNames[i] = oc.LeftColumn
				rNames[i] = oc.RightColumn
			}
			for _, g := range plan.HotJoint(left.Name, lNames) {
				if len(g.Values) != len(lCols) {
					continue
				}
				k := groupKey(g.Values, lCols)
				f := hot[k]
				if g.Frac > f.l {
					f.l = g.Frac
				}
				hot[k] = f
			}
			for _, g := range plan.HotJoint(right.Name, rNames) {
				if len(g.Values) != len(rCols) {
					continue
				}
				k := groupKey(g.Values, rCols)
				f := hot[k]
				if g.Frac > f.r {
					f.r = g.Frac
				}
				hot[k] = f
			}
		}
		splits := make(map[uint64]skew.Split)
		for k, f := range hot {
			sp := skew.Split{
				Rows: skew.SplitFactor(f.l, kr, plan.Threshold),
				Cols: skew.SplitFactor(f.r, kr, plan.Threshold),
			}
			// Shrink the larger axis until the sub-grid fits in kr.
			for sp.Cells() > kr {
				if sp.Rows >= sp.Cols && sp.Rows > 1 {
					sp.Rows--
				} else if sp.Cols > 1 {
					sp.Cols--
				} else {
					break
				}
			}
			if sp.Cells() > 1 && sp.Cells() <= kr {
				splits[k] = sp
			}
		}
		if len(splits) > 0 {
			partitioner = &skew.EquiPartitioner{Splits: splits}
		}
	}
	rels := []*relation.Relation{left, right}
	// Reducer-side verification through the shared indexed evaluator:
	// within a reduce group (one composite key hash) the equality
	// conditions compare normalized sort keys — or probe a per-group
	// hash index when hash collisions mix several key values — instead
	// of boxed Compare(Value.Add(...)) per (l, r) pair.
	bound, err := bindConditions(oriented, rels)
	if err != nil {
		return nil, err
	}
	je := newJoinEval(rels, bound)
	return &mr.Job{
		Name: name,
		Inputs: []mr.Input{
			{Rel: left, Map: func(t relation.Tuple, emit mr.Emitter) { emit(hashKey(t, lCols), 0, t) }},
			{Rel: right, Map: func(t relation.Tuple, emit mr.Emitter) { emit(hashKey(t, rCols), 1, t) }},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ls, rs := groups[0], groups[1]
			if len(ls) == 0 || len(rs) == 0 {
				return
			}
			// Tiny groups (the common case when keys are near-unique)
			// verify pair-by-pair on normalized keys with zero group
			// setup; larger groups get the per-group indexes.
			if len(ls)*len(rs) <= directPairVerify {
				ctx.AddWork(int64(len(ls)) * int64(len(rs)))
				for _, l := range ls {
					for _, r := range rs {
						if je.matchPair(l, r) {
							ctx.EmitConcat(l, r)
						}
					}
				}
				return
			}
			ge := je.newGroupEval(groups)
			ge.run(ctx, func(sel []int32) {
				ctx.EmitConcat(ls[sel[0]], rs[sel[1]])
			})
		},
		NumReducers:  kr,
		Partitioner:  partitioner,
		OutputName:   name,
		OutputSchema: prefixedSchema(rels),
		OutputDicts:  prefixedDicts(rels),
	}, nil
}
