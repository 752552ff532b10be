// Package skew detects heavy hitters on join attributes and plans
// skew-resilient shuffle routing around them.
//
// The paper's cost model (§4.1) charges every reducer an equal share
// of the shuffled bytes plus a variance term, and the planner's
// operators — hash repartitioning and the Afrati–Ullman share grid —
// realise that balance only when join-key values are roughly uniform.
// Real workloads are Zipf-skewed: one hot station code or part key can
// put a constant fraction of the input on a single reducer, making it
// the job makespan no matter how many units the scheduler grants.
//
// The subsystem has three layers:
//
//   - Detection: one detector (HotKeys) reports the heavy hitters of
//     a column set as []relation.HotKey — hot value COMBINATIONS, a
//     single column being a set of one. It counts every row when the
//     relation is small enough to scan (ExactThreshold), and otherwise
//     counts the sample rows the statistics pass retained, exactly,
//     scaling each count to the relation; because the sampling RNG is
//     seeded, the report is deterministic across runs.
//     AnnotateCatalog runs it once per column and caches the results in
//     the stats catalog; Report answers from that cache for one column
//     and detects over the retained sample for any larger set, which
//     per-column reports cannot stand in for — two individually
//     near-uniform columns can still share one dominant pair.
//
//   - Planning: core.Planner consults the report when costing candidate
//     jobs (SigmaFrac turns the hottest key's share into the reducer
//     input-variance estimate the cost model consumes) and attaches a
//     JobPlan — the reports of the job's key column sets, one map keyed
//     by relation and JointKey — to planned jobs whose hottest key
//     would overload a reducer past Threshold × the mean load. At
//     execution time the runtime feedback loop (core's replan step)
//     re-derives the JobPlan of cascade jobs from a statistics overlay
//     measured on their actual intermediate inputs, escalating to a
//     tighter threshold when an upstream job's observed BalanceRatio
//     exceeded the bound its threshold modeled.
//
//   - Routing: per SharesSkew (Afrati/Ullman et al.), a hot value is a
//     residual join laid out as a Run — a sub-grid of reducers with one
//     axis per member relation. A member's tuple pins its own axis by a
//     deterministic content hash (TupleHash) and replicates along the
//     others, so every joining combination still meets in exactly one
//     slot, the one Run.Owner names. A Layout finds a value's run by
//     the 64-bit key its operator already routes by, and each operator
//     builds its layout with the job by one of two placements: Overlay
//     for hash equi-joins (an axis per side sized to that side's
//     fraction, runs of simultaneous hot values on the least-occupied
//     reducers, cold keys on key mod k) and Carve for share-grid
//     dimensions (consecutive slots split by the largest member, cold
//     values hashed over the rest). Each rule alone regresses the other
//     operator's workloads, so both stay.
//
// All routing decisions are pure functions of tuple content and the
// plan, so execution stays deterministic for any worker count.
package skew
