package core

import (
	"math/rand"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/skew"
)

// Runtime feedback re-planning. The static plan derives every job's
// reducer count, σ estimate and hot-key handling from pre-execution
// catalog statistics — which a cascade job consuming a *produced*
// intermediate does not even have: its input exists only once the
// upstream job finishes, and a Zipf-hot join key is typically
// amplified (quadratically, for an equi join) in the intermediate.
// ExecuteContext therefore runs the skew sketch over every completed
// job's output, installs the synthesized statistics in a
// per-execution overlay, and re-derives downstream jobs' parameters
// from measured reality at dispatch time.
//
// Determinism: a job's replan reads only the overlay entries of its
// own inputs — which have necessarily completed before it dispatches,
// regardless of how the schedule interleaves on the wall clock — and
// every synthesis step is seeded from the producing job's name, so
// the revised plan (and hence the output and metrics) is identical
// for any worker count.

// replanMinThreshold floors the escalated hot-key threshold: below
// ~1 the trigger would split near-uniform keys and the SigmaFrac cap
// would lose meaning.
const replanMinThreshold = 1.05

// feedbackStatsSample bounds the rows Analyze retains when
// synthesizing an intermediate's statistics. Matching the skew
// package's exact-pass threshold means every intermediate at or below
// it is counted exactly (the retained "sample" is the whole relation)
// rather than sketched.
const feedbackStatsSample = 4096

// feedback accumulates the measured statistics of completed jobs: the
// per-execution stats overlay plus each job's observed reducer
// balance and volume multiplier, consumed by replan when a downstream
// job dispatches.
type feedback struct {
	pl    *Planner
	db    *DB
	stats map[string]*relation.TableStats
	ratio map[string]float64
	mult  map[string]float64
}

func newFeedback(pl *Planner, db *DB) *feedback {
	return &feedback{
		pl:    pl,
		db:    db,
		stats: make(map[string]*relation.TableStats),
		ratio: make(map[string]float64),
		mult:  make(map[string]float64),
	}
}

// observe ingests a completed job: the statistics pass and the skew
// sketch run over its output relation (exactly, when it is at most
// skew.ExactThreshold tuples) and the synthesized TableStats is
// installed in the overlay under the job's name. The sampling rng is
// seeded from the job name, so the overlay's content is a pure function
// of the job's (deterministic) output.
func (fb *feedback) observe(jobName string, res *mr.Result) {
	out := res.Output
	rng := rand.New(rand.NewSource(int64(jobSalt(jobName))))
	ts := relation.Analyze(out, feedbackStatsSample, rng)
	skew.AnnotateTable(ts, out)
	fb.stats[jobName] = ts
	fb.ratio[jobName] = res.Metrics.BalanceRatio
	fb.mult[jobName] = out.VolumeMultiplier
}

// replan re-derives a dispatched job's reducer count, σ model and
// hot-key handling from measured statistics when any of its inputs is
// a produced intermediate. It returns a revised copy — the shared
// plan is never mutated — and reports whether anything was
// re-derived. Failures degrade gracefully: any estimation error keeps
// the corresponding static choice.
func (fb *feedback) replan(pj *PlannedJob) (*PlannedJob, bool) {
	overlay := make(map[string]*relation.TableStats)
	threshold := skew.DefaultThreshold
	for _, name := range pj.RelOrder {
		ts, ok := fb.stats[name]
		if !ok {
			continue
		}
		overlay[name] = ts
		// Escalate when the upstream job's observed imbalance exceeded
		// the bound its threshold models (runtime splitting keeps the
		// hottest reducer near threshold × the mean): the measured
		// distribution was worse than planned, so this job hunts heavy
		// hitters proportionally more aggressively.
		if r := fb.ratio[name]; r > threshold {
			t := threshold * threshold / r
			if t < replanMinThreshold {
				t = replanMinThreshold
			}
			threshold = t
		}
	}
	if len(overlay) == 0 {
		return pj, false
	}
	cat := fb.db.Catalog.WithOverlay(overlay)
	rj := *pj
	if k, err := fb.rederiveReducers(&rj, cat); err == nil && k > 0 {
		rj.Reducers = k
	}
	rj.Skew = SkewPlanFor(cat, rj.Kind, rj.Conds, rj.Reducers, threshold)
	// Refresh the recorded σ fraction from the measured distribution,
	// so the execution report shows the re-derived model, not the
	// static one it replaced.
	pmax, known := 0.0, false
	if rj.Kind != KindHilbertTheta {
		pmax, known = maxJoinHotFrac(cat, rj.Conds, rj.Kind)
	}
	rj.SigmaFrac = sigmaFracFor(rj.Kind, rj.Reducers, pmax, known)
	return &rj, true
}

// rederiveReducers repeats the planner's T(k) sweep with measured
// input statistics, capped at the job's unit allotment so the
// schedule's placement stays valid. Share-grid jobs keep their
// allotment-wide grid (the operator derives the largest feasible
// share product itself).
func (fb *feedback) rederiveReducers(pj *PlannedJob, cat *relation.Catalog) (int, error) {
	if pj.Kind == KindShareGrid {
		return pj.Reducers, nil
	}
	maxK := pj.effectiveUnits()
	if maxK < 2 {
		return pj.Reducers, nil
	}
	pl := fb.pl
	inputBytes, mapTasks, outBytes, _, err := pl.sizeJob(cat, pj.RelOrder, pj.Conds,
		func(name string) float64 {
			// Measured intermediates carry their observed multiplier
			// (recorded at observe time); base relations answer from
			// the db.
			if m, ok := fb.mult[name]; ok {
				return m
			}
			if r, err := fb.db.Relation(name); err == nil {
				return r.VolumeMultiplier
			}
			return 1
		})
	if err != nil {
		return 0, err
	}
	pmax, skewKnown := 0.0, false
	if pj.Kind != KindHilbertTheta {
		pmax, skewKnown = maxJoinHotFrac(cat, pj.Conds, pj.Kind)
	}
	_, bestK, _, err := pl.sweepReducers(costSweepInputs{
		kind:       pj.Kind,
		inputBytes: inputBytes,
		mapTasks:   mapTasks,
		outBytes:   outBytes,
		numRels:    len(pj.RelOrder),
		pmax:       pmax,
		skewKnown:  skewKnown,
		conds:      pj.Conds,
	}, maxK)
	if err != nil {
		return 0, err
	}
	return bestK, nil
}
