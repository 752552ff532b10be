package main

import (
	"fmt"
	"math"
)

// workloadResult is one workload's line of the ledger.
type workloadResult struct {
	Name       string          `json:"name"`
	Why        string          `json:"why"`
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Errors     []string        `json:"errors,omitempty"`
	Rows       int             `json:"rows"`
	ResultHash string          `json:"result_hash"`
	EndToEnd   map[string]stat `json:"end_to_end"`
	PerLayer   map[string]stat `json:"per_layer"`
}

func (r *workloadResult) layer(name string) float64 { return r.PerLayer[name].Value }

func (r *workloadResult) errorf(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// aggregate turns a workload's samples into its metrics and runs the
// self-checks: identical results on every block, exactly repeating
// counts, and at full scale the pinned identity and the planner shape.
func aggregate(run *workloadRun, spans spanStats, sc schedule) *workloadResult {
	res := &workloadResult{
		Name: run.w.name, Why: run.w.why, Correct: true,
		EndToEnd: map[string]stat{}, PerLayer: map[string]stat{},
	}
	all := append(append(append([]*sample(nil), run.warm...), run.timed...), run.traced...)
	for _, s := range all {
		res.Attempted += s.ops
		res.Failed += s.failed
		for _, e := range s.errs {
			res.errorf("%s", e)
		}
	}
	timed := run.timed
	if len(timed) == 0 {
		res.errorf("no timed round completed")
		return res
	}
	first := timed[0]
	res.Rows, res.ResultHash = first.rows, first.hash
	for _, s := range all {
		if s.failed == 0 && (s.rows != first.rows || s.hash != first.hash || s.makespan != first.makespan) {
			res.errorf("result differs between blocks: %d rows, hash %s, makespan %v vs %d, %s, %v",
				s.rows, s.hash, s.makespan, first.rows, first.hash, first.makespan)
		}
	}

	// End to end. Timings are medians over the timed rounds; throughput
	// and CPU are totals over them, with the per-round quartiles.
	var latency, tracedLatency, roundQPS, roundCPU, allocMB, mallocs []float64
	var ops, wall, cpu, hits, rejected float64
	for _, s := range timed {
		latency = append(latency, s.dist["query_s"]...)
		n := float64(s.ops)
		ops, wall, cpu = ops+n, wall+s.wall, cpu+s.cpu
		hits, rejected = hits+float64(s.cacheHits), rejected+float64(s.rejected)
		roundQPS = append(roundQPS, n/s.wall)
		roundCPU = append(roundCPU, s.cpu/n)
		allocMB = append(allocMB, s.allocMB/n)
		mallocs = append(mallocs, s.mallocs/n)
	}
	for _, s := range run.traced {
		tracedLatency = append(tracedLatency, s.dist["query_s"]...)
	}
	e := res.EndToEnd
	e["setup_s"] = statOf(run.setupS, "s")
	e["query_s_p50"] = statOf(latency, "s")
	// A p90 needs ten samples beyond it.
	if len(latency) >= 100 {
		e["query_s_p90"] = statOf(latency, "s").withValue(quantile(latency, 0.9))
	}
	e["queries_per_s"] = statOf(roundQPS, "1/s").withValue(ops / wall)
	e["cpu_s_per_query"] = statOf(roundCPU, "s").withValue(cpu / ops)
	e["alloc_mb_per_query"] = statOf(allocMB, "MB")
	e["allocs_per_query"] = statOf(mallocs, "count")
	e["live_heap_mb"] = statOf(run.liveHeapMB, "MB")
	e["modeled_makespan_s"] = point(first.makespan, "modeled_s", len(timed))
	e["failed_share"] = point(ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)

	if med := e["allocs_per_query"].Value; med > 0 {
		for i, x := range mallocs {
			if math.Abs(x-med) > 0.02*med {
				res.errorf("allocs_per_query %.0f in timed round %d is more than 2%% from the median %.0f", x, i, med)
			}
		}
	}

	// Per layer.
	derivedStats := map[string]stat{
		"core.modeled_makespan_s":  e["modeled_makespan_s"],
		"server.cache_hit_ratio":   point(ratio(hits, ops), "ratio", int(ops)),
		"server.rejected":          point(rejected, "count", int(ops)),
		"obs.trace_overhead_ratio": point(ratio(median(tracedLatency), e["query_s_p50"].Value), "ratio", len(tracedLatency)),
	}
	if run.w.served {
		derivedStats["server.query_s_p90"] = e["query_s_p90"]
	}
	for _, d := range perLayer {
		var xs []float64
		for _, s := range timed {
			if d.kind == perRequest {
				xs = append(xs, s.dist[d.name]...)
			} else {
				xs = append(xs, s.layer[d.name])
			}
		}
		st := statOf(xs, d.unit)
		switch d.kind {
		case exactCount:
			st = point(xs[0], d.unit, len(xs))
			for i, x := range xs {
				if x != xs[0] {
					res.errorf("%s is %v in timed round %d but %v in round 0; it must repeat exactly", d.name, x, i, xs[0])
					break
				}
			}
		case traced:
			st = point(spans.perOp[d.name], d.unit, spans.ops)
		case derived:
			st = derivedStats[d.name]
			st.Unit = d.unit
		}
		res.PerLayer[d.name] = st
	}

	if c := res.layer("bench.span_coverage"); c < 0.98 {
		res.errorf("bench.span_coverage is %.4f: the boundary spans must cover >= 0.98 of the query span", c)
	}
	if sc.fullScale() {
		if sc.seed == 1 && (res.Rows != run.w.pinRows || res.ResultHash != run.w.pinHash) {
			res.errorf("seed 1 result is %d rows, hash %s; pinned %d rows, hash %s", res.Rows, res.ResultHash, run.w.pinRows, run.w.pinHash)
		}
		if run.w.shape != nil {
			if err := run.w.shape(res); err != nil {
				res.errorf("planner shape: %v", err)
			}
		}
	}
	return res
}
