package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// checkpointCascadePlan builds the two-job cascade of the
// dependent-jobs gate test: casc-j2 joins casc-j1's output back
// against B.
func checkpointCascadePlan(t *testing.T) (*Plan, *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	a := randRelation("A", 40, 12, rng)
	b := randRelation("B", 30, 12, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("casc", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	return &Plan{
		Query: q,
		Jobs: []PlannedJob{
			{Name: "casc-j1", Conds: predicate.Conjunction{q.Conditions[0]}, RelOrder: []string{"A", "B"},
				Kind: KindHilbertTheta, Reducers: 2, Units: 8},
			{Name: "casc-j2", Conds: predicate.Conjunction{
				predicate.C("casc-j1", "A.a", predicate.LE, "B", "b"),
			}, RelOrder: []string{"casc-j1", "B"}, Kind: KindHilbertTheta, Reducers: 2, Units: 8},
		},
	}, db
}

// TestCheckpointResume is the cascade-recovery contract: a plan that
// fails partway resumes re-executing ONLY the jobs whose intermediates
// were not checkpointed, and the resumed output matches a clean run.
func TestCheckpointResume(t *testing.T) {
	plan, db := checkpointCascadePlan(t)
	clean, err := testPlanner(8).Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}

	store, err := dfs.NewBlockStore("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cp := dfs.NewCheckpointStore(store)

	// Run 1: exhaust casc-j2's retries (kill every attempt of reduce
	// task 0). casc-j1 completes and checkpoints; the plan fails.
	pl := testPlanner(8)
	pl.Opts.Checkpoint = cp
	pl.Config.Faults = &mr.FaultPlan{Faults: []mr.Fault{
		{Kind: mr.FaultKillReduce, Job: "casc-j2", Task: 0, Attempt: -1},
	}}
	_, err = pl.Execute(plan, db)
	var te *mr.TaskError
	if err == nil || !errors.As(err, &te) {
		t.Fatalf("faulted run error = %v, want TaskError", err)
	}
	if r, ok, err := cp.LoadIntermediate("casc", "casc-j1"); err != nil || !ok || r.Cardinality() == 0 {
		t.Fatalf("casc-j1 not checkpointed before the failure: ok=%v err=%v", ok, err)
	}

	// Run 2: resume. casc-j1 must restore (zero synthetic metrics, no
	// re-execution); casc-j2 must actually run; output matches clean.
	pl2 := testPlanner(8)
	pl2.Opts.Checkpoint = cp
	pl2.Opts.ResumeFrom = "casc"
	res, err := pl2.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckpointRestored) != 1 || res.CheckpointRestored[0] != "casc-j1" {
		t.Fatalf("CheckpointRestored = %v, want [casc-j1]", res.CheckpointRestored)
	}
	if m := res.JobMetrics["casc-j1"]; m.MapTasks != 0 || m.ReduceTasks != 0 {
		t.Errorf("restored job re-executed: %+v", m)
	}
	if m := res.JobMetrics["casc-j2"]; m.MapTasks == 0 {
		t.Errorf("un-checkpointed job did not run: %+v", m)
	}
	if !resultSet(clean.Output).Equal(resultSet(res.Output)) {
		t.Error("resumed output differs from clean run")
	}
	if rep := res.Report(); !strings.Contains(rep, "checkpoint restore: 1 jobs skipped (casc-j1)") {
		t.Errorf("report missing restore line:\n%s", rep)
	}
}

// failingLoads is a Checkpointer whose load of one job errors, as a
// checkpoint corrupt on every replica does.
type failingLoads struct {
	Checkpointer
	job string
}

func (f failingLoads) LoadIntermediate(plan, job string) (*relation.Relation, bool, error) {
	if job == f.job {
		return nil, false, errors.New("checksum mismatch on all replicas")
	}
	return f.Checkpointer.LoadIntermediate(plan, job)
}

// TestCheckpointLoadErrorIsAMiss: a checkpoint that fails to load must
// not fail the resumed query — the job it would have skipped runs
// again, and the error is counted.
func TestCheckpointLoadErrorIsAMiss(t *testing.T) {
	plan, db := checkpointCascadePlan(t)
	store, err := dfs.NewBlockStore("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cp := dfs.NewCheckpointStore(store)
	pl := testPlanner(8)
	pl.Opts.Checkpoint = cp
	clean, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.CheckpointSaved) != 1 || clean.CheckpointSaved[0] != "casc-j1" {
		t.Fatalf("CheckpointSaved = %v, want [casc-j1]", clean.CheckpointSaved)
	}

	pl2 := testPlanner(8)
	pl2.Opts.Checkpoint = failingLoads{Checkpointer: cp, job: "casc-j1"}
	pl2.Opts.ResumeFrom = "casc"
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	res, err := pl2.ExecuteContext(obs.NewContext(context.Background(), o), plan, db)
	if err != nil {
		t.Fatalf("resume over an unloadable checkpoint failed: %v", err)
	}
	if len(res.CheckpointRestored) != 0 {
		t.Errorf("CheckpointRestored = %v, want none", res.CheckpointRestored)
	}
	for _, job := range []string{"casc-j1", "casc-j2"} {
		if m := res.JobMetrics[job]; m.MapTasks == 0 {
			t.Errorf("%s did not run: %+v", job, m)
		}
	}
	if !resultSet(clean.Output).Equal(resultSet(res.Output)) {
		t.Error("output differs from the clean run")
	}
	if n := o.Counter("core.checkpoint_errors").Value(); n != 1 {
		t.Errorf("core/checkpoint_errors = %d, want 1", n)
	}
}

// TestExecutePlanWithFaultPlan: a retryable fault plan threaded through
// the planner config (kills, corruption, stragglers across the
// cascade's jobs) never changes the plan's output, and the fault
// telemetry aggregates into ExecResult and its Report.
func TestExecutePlanWithFaultPlan(t *testing.T) {
	plan, db := checkpointCascadePlan(t)
	clean, err := testPlanner(8).Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}

	pl := testPlanner(8)
	pl.Config.SpillBudgetBytes = 1 << 10
	faults, err := mr.ParseFaultPlan("seed=3,map-kills=1,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	pl.Config.Faults = faults
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !resultSet(clean.Output).Equal(resultSet(res.Output)) {
		t.Error("fault plan changed the plan output")
	}
	if res.TaskFailures == 0 {
		t.Error("planned kills not charged into TaskFailures")
	}
	if res.ChecksumFailures != 2 || res.FailoverReads != 2 {
		// One corruption consumed once per job (each job resolves its
		// own injector from the shared plan).
		t.Errorf("corruption telemetry: checksum=%d failover=%d, want 2/2",
			res.ChecksumFailures, res.FailoverReads)
	}
	if rep := res.Report(); !strings.Contains(rep, "fault tolerance:") {
		t.Errorf("report missing fault line:\n%s", rep)
	}
}
