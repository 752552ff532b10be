package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/query"
)

// tracedPlan builds the multi-wave cascade fixture: job 2 reads job 1's
// output (a data dependency forcing a second wave) while job 3 is
// independent and free to overlap wave 1.
func tracedPlan(q *query.Query) *Plan {
	return &Plan{
		Query: q,
		Jobs: []PlannedJob{
			{Name: "tr-j1", Conds: predicate.Conjunction{q.Conditions[0]}, RelOrder: []string{"A", "B"},
				Kind: KindHilbertTheta, Reducers: 3, Units: 4},
			{Name: "tr-j2", Conds: predicate.Conjunction{
				predicate.C("tr-j1", "A.a", predicate.LE, "B", "b"),
			}, RelOrder: []string{"tr-j1", "B"}, Kind: KindHilbertTheta, Reducers: 3, Units: 4},
			{Name: "tr-j3", Conds: predicate.Conjunction{q.Conditions[1]}, RelOrder: []string{"B", "C"},
				Kind: KindHilbertTheta, Reducers: 2, Units: 4},
		},
	}
}

// TestTracedExecutionDeterminism asserts the determinism guarantee
// documented in package obs: enabling tracing changes no relation
// output, at any worker count. A multi-wave cascade plan runs with a
// live tracer at MaxParallelWorkers 1 and NumCPU; the outputs must be
// bit-identical, and each run's trace must be a well-formed, monotonic
// span stream covering every pipeline phase. Run it under -race: the
// per-worker shard arrangement is exactly what it stresses.
func TestTracedExecutionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randRelation("A", 35, 12, rng)
	b := randRelation("B", 28, 12, rng)
	c := randRelation("C", 20, 12, rng)
	db := newTestDB(t, a, b, c)
	q := query.MustNew("traced", []string{"A", "B", "C"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
		predicate.C("B", "b", predicate.GE, "C", "b"),
	})

	var ref *ExecResult
	var refWorkers int
	for _, w := range []int{1, runtime.NumCPU()} {
		o := &obs.Obs{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
		pl := testPlanner(8)
		pl.Config.MaxParallelWorkers = w
		res, err := pl.ExecuteContext(obs.NewContext(context.Background(), o), tracedPlan(q), db)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}

		// Output identical across worker counts, tracing on.
		if ref == nil {
			ref, refWorkers = res, w
		} else {
			if got, want := len(res.Output.Tuples), len(ref.Output.Tuples); got != want {
				t.Fatalf("workers=%d vs %d: %d vs %d output tuples", w, refWorkers, got, want)
			}
			for i := range res.Output.Tuples {
				if !sameRow(res.Output.Tuples[i], ref.Output.Tuples[i]) {
					t.Fatalf("workers=%d vs %d: tuple %d differs: %v vs %v",
						w, refWorkers, i, res.Output.Tuples[i], ref.Output.Tuples[i])
				}
			}
			if !reflect.DeepEqual(zeroWallMap(res.JobMetrics), zeroWallMap(ref.JobMetrics)) {
				t.Errorf("workers=%d: job metrics differ with tracing on", w)
			}
		}

		// Span stream: non-empty, named, monotonic, non-negative.
		events := o.Tracer.Events()
		if len(events) == 0 {
			t.Fatalf("workers=%d: tracer recorded no events", w)
		}
		seen := map[string]bool{}
		lastTs := int64(-1)
		for i, e := range events {
			if e.Name == "" {
				t.Fatalf("workers=%d: event %d unnamed", w, i)
			}
			if e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("workers=%d: event %d (%s) negative time ts=%d dur=%d", w, i, e.Name, e.Ts, e.Dur)
			}
			if e.Ts < lastTs {
				t.Fatalf("workers=%d: event %d (%s) breaks monotonicity: %d after %d", w, i, e.Name, e.Ts, lastTs)
			}
			lastTs = e.Ts
			seen[e.Name] = true
		}
		// Phase coverage: every pipeline stage must have traced.
		// (the streaming shuffle merge traces inside the "reduce" span;
		// the gather is "shuffle-copy")
		for _, want := range []string{"execute", "build-job", "dispatch", "map", "shuffle-copy", "reduce", "assemble", "plan-merge", "merge-step"} {
			if !seen[want] {
				t.Errorf("workers=%d: no %q span in trace", w, want)
			}
		}

		// The export must be valid trace-event JSON.
		var buf bytes.Buffer
		if err := o.Tracer.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: WriteJSON: %v", w, err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("workers=%d: exported trace not valid JSON: %v", w, err)
		}
		if len(doc.TraceEvents) <= len(events) {
			t.Errorf("workers=%d: export holds %d events, want > %d (thread metadata + spans)",
				w, len(doc.TraceEvents), len(events))
		}
	}

	// The same plan with tracing disabled must also agree: observers
	// are write-only and cannot steer execution.
	pl := testPlanner(8)
	plain, err := pl.Execute(tracedPlan(q), db)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(plain.Output.Tuples, ref.Output.Tuples) {
		t.Errorf("tracing changed the relation output")
	}
}
