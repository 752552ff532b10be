package main

import (
	"math"
	"sort"
)

const (
	lower  = "lower"
	higher = "higher"
)

// e2eDef is one end-to-end metric: what a user of thetajoin/thetad sees.
// bound is the share of the baseline's median by which the metric may
// worsen before -compare (and the driver) call it a regression.
type e2eDef struct {
	name, unit, better string
	bound              float64
	// driver marks the metrics BENCHMARK.json lists. The other three
	// cannot meet its contract, which wants every metric on every
	// workload, never 0, and no time that reads the same on every run:
	// query_s_p90 has enough samples on served_mix only, failed_share is
	// 0 on every healthy run, and modeled_makespan_s is bit-deterministic
	// (the driver gets it per layer, as core.modeled_makespan_s). The
	// suite run and -compare report all ten.
	driver bool
}

// The timing bounds are as wide as the contract allows because this
// host's speed drifts by +-10% over tens of seconds: ten 12 s runs of
// one workload put their query_s_p50 medians 2-16% apart (interquartile),
// and a bound must stay above that. Allocation and heap metrics repeat
// to under 1.5% across seeds (the row order moves slice growth), so
// their bounds are tight.
var endToEnd = []e2eDef{
	{"setup_s", "s", lower, 0.25, true},
	{"query_s_p50", "s", lower, 0.25, true},
	{"query_s_p90", "s", lower, 0.25, false},
	{"queries_per_s", "1/s", higher, 0.25, true},
	{"cpu_s_per_query", "s", lower, 0.25, true},
	{"alloc_mb_per_query", "MB", lower, 0.05, true},
	{"allocs_per_query", "count", lower, 0.05, true},
	{"live_heap_mb", "MB", lower, 0.05, true},
	{"modeled_makespan_s", "modeled_s", lower, 0, false},
	{"failed_share", "ratio", lower, 0, false},
}

// setupFloor is the value below which setup_s differences are ignored
// by -compare: a 20 ms set-up doubling is noise, not a regression.
const setupFloor = 0.1

// layerKind says where a per-layer metric is read and how its samples
// combine.
type layerKind int

const (
	// wallTime: seconds read on every timed round with the benchmark's
	// own clock at the call boundary (or from the returned result);
	// reported as the median.
	wallTime layerKind = iota
	// exactCount: a count read on every timed round that must repeat
	// exactly; any disagreement between rounds fails the run.
	exactCount
	// racyCount: a count that legitimately varies with goroutine
	// interleaving (page-cache hits, speculative attempts, shared-pool
	// budgets); reported as the median, exempt from the self-check.
	racyCount
	// perRequest: a distribution over the served requests of all timed
	// rounds; reported as its p50.
	perRequest
	// traced: derived from the program's spans in the traced rounds.
	traced
	// derived: computed from other aggregated values after the run.
	derived
)

type layerDef struct {
	name, unit, better string
	kind               layerKind
}

// perLayer is the ledger, grouped by the module that does the work.
// joinpath, setcover, schedule, cost, predicate and hilbert run only
// inside Planner.Plan and the job builders; until in-program spans land
// they are covered by core.plan_s and core.plan_candidates.
var perLayer = []layerDef{
	{"relation.read_csv_s", "s", lower, wallTime},
	{"relation.input_rows", "rows", lower, exactCount},
	{"relation.input_bytes", "bytes", lower, exactCount},
	{"relation.content_hash_s", "s", lower, wallTime},
	{"relation.write_csv_s", "s", lower, wallTime},
	{"relation.write_csv_bytes", "bytes", lower, exactCount},
	{"relation.result_rows", "rows", higher, exactCount},

	{"query.parse_s", "s", lower, wallTime},

	{"core.newdb_s", "s", lower, wallTime},
	{"core.plan_s", "s", lower, wallTime},
	{"core.plan_jobs", "count", lower, exactCount},
	{"core.plan_candidates", "count", lower, exactCount},
	{"core.modeled_makespan_s", "modeled_s", lower, derived},
	{"core.execute_s", "s", lower, wallTime},
	{"core.merge_s", "s", lower, wallTime},
	{"core.merge_steps", "count", lower, exactCount},
	{"core.execute_self_s", "s", lower, traced},
	{"core.max_concurrent_jobs", "count", higher, racyCount},
	{"core.replanned_jobs", "count", lower, racyCount},

	{"mr.job_s", "s", lower, wallTime},
	{"mr.map_s", "s", lower, wallTime},
	{"mr.reduce_s", "s", lower, wallTime},
	{"mr.assemble_s", "s", lower, wallTime},
	{"mr.map_busy_s", "s", lower, traced},
	{"mr.shuffle_copy_busy_s", "s", lower, traced},
	{"mr.reduce_busy_s", "s", lower, traced},
	{"mr.spill_busy_s", "s", lower, traced},
	{"mr.map_tasks", "count", lower, exactCount},
	{"mr.reduce_tasks", "count", lower, exactCount},
	{"mr.task_attempts", "count", lower, racyCount},
	{"mr.task_failures", "count", lower, exactCount},
	{"mr.pairs_emitted", "count", lower, exactCount},
	{"mr.shuffle_bytes", "bytes", lower, exactCount},
	{"mr.output_bytes", "bytes", lower, exactCount},
	{"mr.combinations_checked", "count", lower, exactCount},
	{"mr.match_ratio", "ratio", higher, exactCount},
	{"mr.spill_bytes", "bytes", lower, exactCount},
	{"mr.spill_runs", "count", lower, exactCount},
	{"mr.peak_live_bytes", "bytes", lower, exactCount},

	{"skew.jobs_with_plan", "count", higher, exactCount},
	{"skew.balance_ratio_max", "ratio", lower, exactCount},
	{"skew.replication_ratio", "ratio", lower, exactCount},

	{"dfs.cache_hits", "count", higher, racyCount},
	{"dfs.cache_misses", "count", lower, racyCount},
	{"dfs.cache_hit_ratio", "ratio", higher, racyCount},
	{"dfs.checksum_failures", "count", lower, racyCount},

	{"server.plan_s_p50", "s", lower, perRequest},
	{"server.exec_s_p50", "s", lower, perRequest},
	{"server.overhead_s_p50", "s", lower, perRequest},
	{"server.budget_units_p50", "count", higher, perRequest},
	{"server.query_s_p90", "s", lower, derived},
	{"server.cache_hit_ratio", "ratio", higher, derived},
	{"server.rejected", "count", lower, derived},

	{"obs.trace_overhead_ratio", "ratio", lower, derived},
	{"obs.trace_events", "count", lower, traced},

	{"bench.span_coverage", "ratio", higher, wallTime},
}

// stat is one reported metric: the median (or the aggregate the
// metric's definition names) with its sample count and quartiles.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; 0 for an empty slice).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// statOf summarises samples as median and quartiles.
func statOf(xs []float64, unit string) stat {
	return stat{Value: median(xs), Unit: unit, N: len(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}

// withValue replaces the median by the aggregate a metric's definition
// names, keeping the per-round quartiles.
func (s stat) withValue(v float64) stat {
	s.Value = v
	return s
}

// point is a metric with one value and no spread: an exact count, or a
// total over the run.
func point(v float64, unit string, n int) stat {
	return stat{Value: v, Unit: unit, N: n, Q1: v, Q3: v}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the denominator is 0 (a layer that did no
// work reports 0, not NaN, so every metric stays a JSON number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
