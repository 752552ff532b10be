package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// worsening is the share of the base by which b is worse than a in the
// metric's direction (negative when b is better).
func worsening(d e2eDef, a, b float64) float64 {
	if d.name == "setup_s" {
		a, b = max(a, setupFloor), max(b, setupFloor)
	}
	if a == b {
		return 0
	}
	if d.better == higher {
		return ratio(a-b, a)
	}
	if a == 0 {
		return 1 // from nothing to something, in a lower-is-better metric
	}
	return (b - a) / a
}

// compareReports applies each end-to-end metric's bound to two reports
// of the same workloads — a the base, b the candidate — printing one row
// per (workload, metric). It fails when any metric of b is worse than a's
// by more than its bound.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	inB := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		inB[r.Name] = r
	}
	fmt.Fprintf(w, "%-14s %-20s %12s %25s %12s %25s %9s %6s\n",
		"workload", "metric", "a", "[q1, q3]", "b", "[q1, q3]", "b vs a", "bound")
	breaches := 0
	for _, ra := range a.Workloads {
		rb, ok := inB[ra.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			sa, okA := ra.EndToEnd[d.name]
			sb, okB := rb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			worse := worsening(d, sa.Value, sb.Value)
			verdict := ""
			if worse > d.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-14s %-20s %12.6g %25s %12.6g %25s %+8.2f%% %5.0f%%%s\n",
				ra.Name, d.name, sa.Value, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3),
				sb.Value, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3),
				100*ratio(sb.Value-sa.Value, sa.Value), 100*d.bound, verdict)
		}
	}
	fmt.Fprintf(w, "b vs a is (b-a)/a, base %s; a breach is a change in the metric's worse direction beyond its bound\n", pathA)
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metrics of %s are worse than %s by more than their bound", breaches, pathB, pathA)
	}
	return nil
}
