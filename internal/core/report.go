package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report renders a human-readable per-job execution report: planned
// values (reducer count, σ fraction, estimated time) next to measured
// ones (reduce tasks run, simulated makespan, real wall time — what
// the executor spent building the job, then its map and reduce phases
// and the whole run — shuffle bytes, balance ratio), with replan deltas
// where the runtime feedback loop revised a job. The footer separates
// the MODELED makespan (the paper's simulated cluster seconds) from the
// MEASURED wall time (real seconds on this machine) explicitly — the two
// answer different questions and must never be read as one number.
//
// A result built without ExecuteContext (no retained plan) degrades to
// the measured-only columns.
func (r *ExecResult) Report() string {
	var b strings.Builder
	var names []string
	planned := make(map[string]*PlannedJob)
	if r.plan != nil {
		fmt.Fprintf(&b, "execution report: %s (%d jobs", r.plan.Query.Name, len(r.plan.Jobs))
		if r.MaxConcurrentJobs > 1 {
			fmt.Fprintf(&b, ", up to %d concurrent", r.MaxConcurrentJobs)
		}
		b.WriteString(")\n")
		for i := range r.plan.Jobs {
			pj := &r.plan.Jobs[i]
			names = append(names, pj.Name)
			planned[pj.Name] = pj
		}
	} else {
		fmt.Fprintf(&b, "execution report: %d jobs\n", len(r.JobMetrics))
		for name := range r.JobMetrics {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	w := 4
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %-13s  %9s  %9s  %9s  %9s  %9s  %9s  %10s  %8s  %7s\n",
		w, "job", "kind", "plan kR", "ran kR", "model(s)", "build", "map", "reduce", "wall", "shuffle", "balance")
	for _, name := range names {
		m, ok := r.JobMetrics[name]
		if !ok {
			continue
		}
		kind, planKR, sigma := "?", "?", ""
		if pj := planned[name]; pj != nil {
			kind = pj.Kind.String()
			planKR = fmt.Sprintf("%d", pj.Reducers)
			sigma = fmt.Sprintf("  σ=%.2f", pj.SigmaFrac)
		}
		fmt.Fprintf(&b, "  %-*s  %-13s  %9s  %9d  %9.1f  %9s  %9s  %9s  %10s  %8s  %7.2f%s\n",
			w, name, kind, planKR, m.ReduceTasks, m.Sim.Total,
			fmtDur(r.BuildWall[name]), fmtDur(m.Wall.Map), fmtDur(m.Wall.Reduce), fmtDur(m.Wall.Total),
			fmtBytes(m.ShuffleBytes), m.BalanceRatio, sigma)
		if rj := r.replanJobs[name]; rj != nil && planned[name] != nil {
			pj := planned[name]
			fmt.Fprintf(&b, "  %-*s  replanned: kR %d -> %d, σ %.2f -> %.2f\n",
				w, "", pj.Reducers, rj.Reducers, pj.SigmaFrac, rj.SigmaFrac)
		}
	}
	fmt.Fprintf(&b, "  merge: %d steps, modeled %.1fs, measured %s\n",
		r.MergeCount, r.MergeTime, fmtDur(r.MergeWall))
	fmt.Fprintf(&b, "  total shuffle: %s\n", fmtBytes(r.ShuffleBytes))
	if r.SpillBytes > 0 || r.PeakLiveBytes > 0 {
		fmt.Fprintf(&b, "  spill: %s in %d runs; peak live pair bytes: %s\n",
			fmtBytes(r.SpillBytes), r.SpillRuns, fmtBytes(r.PeakLiveBytes))
	}
	if r.TaskAttempts > 0 || r.TaskFailures > 0 || r.ChecksumFailures > 0 {
		fmt.Fprintf(&b, "  fault tolerance: %d task attempts, %d retried failures, %d speculative (%d won), %d checksum failures (%d failover reads)\n",
			r.TaskAttempts, r.TaskFailures, r.SpeculativeLaunched, r.SpeculativeWins,
			r.ChecksumFailures, r.FailoverReads)
	}
	fmt.Fprintf(&b, "  makespan (MODELED cluster seconds): %.1f\n", r.Makespan)
	fmt.Fprintf(&b, "  wall time (MEASURED on this machine): %s\n", fmtDur(r.Wall))
	return b.String()
}

// fmtDur prints a duration rounded to a readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// fmtBytes prints modeled byte volumes in human units.
func fmtBytes(n int64) string {
	switch {
	case n >= 1e12:
		return fmt.Sprintf("%.1fTB", float64(n)/1e12)
	case n >= 1e9:
		return fmt.Sprintf("%.1fGB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fMB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fkB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
