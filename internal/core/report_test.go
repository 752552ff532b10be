package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
)

// TestReportModeledVsMeasured asserts that an executed plan carries
// both time axes — the modeled Makespan (simulated cluster seconds)
// and the measured Wall (real time on this machine), per job and in
// total — and that Report keeps them explicitly apart in its output.
func TestReportModeledVsMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randRelation("A", 60, 16, rng)
	b := randRelation("B", 50, 16, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("rep", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	pl := testPlanner(8)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}

	// Both axes populated, at every level.
	if res.Makespan <= 0 {
		t.Errorf("modeled Makespan not populated: %v", res.Makespan)
	}
	if res.Wall <= 0 {
		t.Errorf("measured Wall not populated: %v", res.Wall)
	}
	for name, m := range res.JobMetrics {
		if m.Sim.Total <= 0 {
			t.Errorf("job %s: modeled Sim.Total not populated: %v", name, m.Sim.Total)
		}
		if m.Wall.Total <= 0 {
			t.Errorf("job %s: measured Wall.Total not populated: %v", name, m.Wall.Total)
		}
		if m.Wall.Map <= 0 || m.Wall.Reduce <= 0 {
			t.Errorf("job %s: phase walls not populated: %+v", name, m.Wall)
		}
		if res.BuildWall[name] <= 0 {
			t.Errorf("job %s: build wall not populated: %v", name, res.BuildWall)
		}
	}

	rep := res.Report()
	// The two time axes must be labelled apart, never as one number.
	if !strings.Contains(rep, "MODELED") {
		t.Errorf("report does not mark the modeled makespan:\n%s", rep)
	}
	if !strings.Contains(rep, "MEASURED") {
		t.Errorf("report does not mark the measured wall time:\n%s", rep)
	}
	for _, col := range []string{"plan kR", "ran kR", "model(s)", "build", "map", "reduce", "wall", "shuffle", "balance"} {
		if !strings.Contains(rep, col) {
			t.Errorf("report lacks column %q:\n%s", col, rep)
		}
	}
	for _, pj := range plan.Jobs {
		if !strings.Contains(rep, pj.Name) {
			t.Errorf("report lacks job %s:\n%s", pj.Name, rep)
		}
	}
}

// TestReportWithoutPlan asserts the degraded path: a hand-assembled
// result (no retained plan) still renders, with measured columns only.
func TestReportWithoutPlan(t *testing.T) {
	res := &ExecResult{
		Makespan:     12.5,
		ShuffleBytes: 1 << 20,
		JobMetrics: map[string]mr.Metrics{
			"solo": {ReduceTasks: 4},
		},
	}
	rep := res.Report()
	if !strings.Contains(rep, "solo") || !strings.Contains(rep, "MODELED") {
		t.Errorf("degraded report malformed:\n%s", rep)
	}
}
