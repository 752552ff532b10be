package main

import (
	"sort"

	"repro/internal/obs"
)

// spanStats is what the traced rounds say about one workload: the
// trace-derived per-layer metrics, each per operation.
type spanStats struct {
	perOp map[string]float64
	ops   int
}

// busySpans maps the program's span names to the metric their
// durations sum into.
var busySpans = map[string]string{
	"map":          "mr.map_busy_s",
	"shuffle-copy": "mr.shuffle_copy_busy_s",
	"reduce":       "mr.reduce_busy_s",
	"spill":        "mr.spill_busy_s",
	"spill-sort":   "mr.spill_busy_s",
}

// traceStats attributes every event to the bench.query span (one per
// traced block, blocks never overlap) whose interval holds its start,
// and aggregates per workload.
func traceStats(events []obs.TraceEvent) map[string]spanStats {
	var windows []obs.TraceEvent
	for _, e := range events {
		if e.Name == "bench.query" {
			windows = append(windows, e)
		}
	}
	inside := make([][]obs.TraceEvent, len(windows))
	for _, e := range events {
		i := sort.Search(len(windows), func(i int) bool { return windows[i].Ts > e.Ts }) - 1
		if i >= 0 && e.Ts <= windows[i].Ts+windows[i].Dur {
			inside[i] = append(inside[i], e)
		}
	}
	out := map[string]spanStats{}
	for i, w := range windows {
		name, _ := w.Args["workload"].(string)
		st := out[name]
		if st.perOp == nil {
			st.perOp = map[string]float64{}
		}
		requests := 0
		var executes, children []obs.TraceEvent
		for _, e := range inside[i] {
			if e.Ph != "X" {
				continue
			}
			if metric, ok := busySpans[e.Name]; ok {
				st.perOp[metric] += float64(e.Dur) / 1e6
			}
			switch e.Name {
			case "bench.request":
				requests++
			case "execute":
				executes = append(executes, e)
			case "job", "plan-merge":
				children = append(children, e)
			}
		}
		st.ops += max(1, requests)
		st.perOp["obs.trace_events"] += float64(len(inside[i]))
		// Self time needs the execute span's own children; with several
		// plans in flight (served) they cannot be told apart by time.
		if len(executes) == 1 {
			st.perOp["core.execute_self_s"] += float64(executes[0].Dur-unionWithin(executes[0], children)) / 1e6
		}
		out[name] = st
	}
	for _, st := range out {
		for k := range st.perOp {
			st.perOp[k] /= float64(st.ops)
		}
	}
	return out
}

// unionWithin is the length (µs) of the union of the children's
// intervals clipped to the parent's.
func unionWithin(parent obs.TraceEvent, children []obs.TraceEvent) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Ts < children[j].Ts })
	lo, hi := parent.Ts, parent.Ts+parent.Dur
	var total int64
	at := lo
	for _, c := range children {
		s, e := max(c.Ts, at), min(c.Ts+c.Dur, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}
