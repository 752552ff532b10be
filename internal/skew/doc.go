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
//     single column being a set of one. It counts exactly when the
//     relation is small enough to scan (ExactThreshold) or the sample
//     holds every row, and otherwise feeds a Misra–Gries summary
//     (Sketch) from the sampled statistics pass; because the sampling
//     RNG is seeded, the report is deterministic across runs.
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
//   - Routing: per SharesSkew (Afrati/Ullman et al.), a heavy hitter's
//     tuples on one side are split across a Rows×Cols sub-grid of
//     reducers by a deterministic content hash (TupleHash) while the
//     matching other side replicates along the opposite axis, so every
//     joining pair still meets exactly once. EquiPartitioner plugs this
//     into the engine's shuffle for hash equi-joins — coordinating
//     sub-grid placement across hot keys so simultaneous heavy
//     hitters occupy disjoint reducer sets when capacity allows — and
//     the share-grid operator gives hot rows of its grid finer cells
//     the same way.
//
// All routing decisions are pure functions of tuple content and the
// plan, so execution stays deterministic for any worker count.
package skew
