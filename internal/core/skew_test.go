package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// zipfKeyRelation builds a relation whose k column follows a Zipf(s)
// distribution — the skewed join-key shape the skew subsystem targets.
func zipfKeyRelation(name string, n int, s float64, domain int, seed int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(z.Uint64())),
			relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// sortedTuples returns a canonically ordered copy of the output for
// set comparison across partitioning strategies (which place the same
// result tuples on different reducers, hence in different order).
func sortedTuples(r *relation.Relation) []relation.Tuple {
	out := append([]relation.Tuple(nil), r.Tuples...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for x := 0; x < len(a) && x < len(b); x++ {
			if c := relation.Compare(a[x], b[x]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

// sameRow and sameRows report bit identity of rows, value by value
// (relation.Identical). reflect.DeepEqual and == on a Value compare
// where a string's bytes live, and DeepEqual then only their first.
func sameRow(a, b relation.Tuple) bool { return slices.EqualFunc(a, b, relation.Identical) }

func sameRows(a, b []relation.Tuple) bool { return slices.EqualFunc(a, b, sameRow) }

func runJob(t *testing.T, job *mr.Job) *mr.Result {
	t.Helper()
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSkewEquiJoinBalance is the equi-join acceptance criterion: on a
// Zipf(1.2)-skewed join key, the skew-aware partitioner cuts the
// reducer balance ratio (MaxReducerInput / mean) by at least 2× versus
// the plain hash partition at equal reducer count, with identical join
// output.
func TestSkewEquiJoinBalance(t *testing.T) {
	const kr = 16
	l := zipfKeyRelation("L", 4000, 1.2, 1000, 21)
	r := zipfKeyRelation("R", 800, 1.2, 1000, 22)
	db := newTestDB(t, l, r)
	conds := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}

	rel := func(name string) *relation.Relation {
		rr, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	base, err := BuildHashEquiJob("equi-base", rel("L"), rel("R"), conds, kr, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := SkewPlanFor(db.Catalog, KindHashEqui, conds, kr, skew.DefaultThreshold)
	if plan == nil {
		t.Fatal("no skew plan for a Zipf(1.2) key — detection or planning broken")
	}
	skewed, err := BuildHashEquiJob("equi-skew", rel("L"), rel("R"), conds, kr, plan)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Partitioner == nil {
		t.Fatal("skew plan produced no partitioner")
	}

	bres, sres := runJob(t, base), runJob(t, skewed)
	if bres.Metrics.BalanceRatio < 2*sres.Metrics.BalanceRatio {
		t.Errorf("balance ratio: baseline %.2f vs skew-aware %.2f — want >= 2x reduction",
			bres.Metrics.BalanceRatio, sres.Metrics.BalanceRatio)
	}
	if !sameRows(sortedTuples(bres.Output), sortedTuples(sres.Output)) {
		t.Errorf("outputs differ: baseline %d tuples, skew-aware %d tuples",
			len(bres.Output.Tuples), len(sres.Output.Tuples))
	}
	t.Logf("equi balance: baseline %.2f → skew-aware %.2f (%d output tuples)",
		bres.Metrics.BalanceRatio, sres.Metrics.BalanceRatio, len(sres.Output.Tuples))
}

// TestSkewShareGridBalance is the share-grid acceptance criterion: a
// theta-join whose equality backbone is Zipf-skewed gets hot rows of
// the grid refined into finer cells, again a >= 2x balance improvement
// with identical output.
func TestSkewShareGridBalance(t *testing.T) {
	const kr = 16
	l := zipfKeyRelation("L", 3000, 1.2, 1000, 31)
	r := zipfKeyRelation("R", 600, 1.2, 1000, 32)
	db := newTestDB(t, l, r)
	// Equality backbone + theta residual: a share-grid theta-join.
	conds := predicate.Conjunction{
		predicate.C("L", "k", predicate.EQ, "R", "k"),
		predicate.C("L", "v", predicate.LE, "R", "v"),
	}
	rel := func(name string) *relation.Relation {
		rr, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	rels := []*relation.Relation{rel("L"), rel("R")}
	base, err := BuildShareGridJob("grid-base", rels, conds, kr, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := SkewPlanFor(db.Catalog, KindShareGrid, conds, kr, skew.DefaultThreshold)
	if plan == nil {
		t.Fatal("no skew plan for the Zipf-skewed grid dimension")
	}
	skewed, err := BuildShareGridJob("grid-skew", rels, conds, kr, plan)
	if err != nil {
		t.Fatal(err)
	}

	bres, sres := runJob(t, base), runJob(t, skewed)
	if bres.Metrics.BalanceRatio < 2*sres.Metrics.BalanceRatio {
		t.Errorf("balance ratio: baseline %.2f vs skew-aware %.2f — want >= 2x reduction",
			bres.Metrics.BalanceRatio, sres.Metrics.BalanceRatio)
	}
	if !sameRows(sortedTuples(bres.Output), sortedTuples(sres.Output)) {
		t.Errorf("outputs differ: baseline %d tuples, skew-aware %d tuples",
			len(bres.Output.Tuples), len(sres.Output.Tuples))
	}
	t.Logf("grid balance: baseline %.2f → skew-aware %.2f (%d output tuples)",
		bres.Metrics.BalanceRatio, sres.Metrics.BalanceRatio, len(sres.Output.Tuples))
}

// TestSkewExecutionDeterminism extends the engine's core invariant to
// skew-aware partitioning: identical output and metrics across worker
// counts for both the hot-key-split equi-join and the refined grid.
func TestSkewExecutionDeterminism(t *testing.T) {
	const kr = 12
	l := zipfKeyRelation("L", 1500, 1.3, 500, 41)
	r := zipfKeyRelation("R", 400, 1.3, 500, 42)
	db := newTestDB(t, l, r)
	rel := func(name string) *relation.Relation {
		rr, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	equiConds := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	gridConds := predicate.Conjunction{
		predicate.C("L", "k", predicate.EQ, "R", "k"),
		predicate.C("L", "v", predicate.GE, "R", "v"),
	}
	cases := []struct {
		name  string
		build func() (*mr.Job, error)
	}{
		{"equi-skew", func() (*mr.Job, error) {
			plan := SkewPlanFor(db.Catalog, KindHashEqui, equiConds, kr, skew.DefaultThreshold)
			if plan == nil {
				t.Fatal("no equi skew plan")
			}
			return BuildHashEquiJob("dequi", rel("L"), rel("R"), equiConds, kr, plan)
		}},
		{"grid-skew", func() (*mr.Job, error) {
			plan := SkewPlanFor(db.Catalog, KindShareGrid, gridConds, kr, skew.DefaultThreshold)
			if plan == nil {
				t.Fatal("no grid skew plan")
			}
			return BuildShareGridJob("dgrid", []*relation.Relation{rel("L"), rel("R")}, gridConds, kr, plan)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref *mr.Result
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				job, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig()
				cfg.MaxParallelWorkers = w
				res, err := mr.Run(context.Background(), cfg, job)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if !sameRows(res.Output.Tuples, ref.Output.Tuples) {
					t.Fatalf("workers=%d: output tuples differ from reference", w)
				}
				if !reflect.DeepEqual(zeroWall(res.Metrics), zeroWall(ref.Metrics)) {
					t.Errorf("workers=%d: metrics differ:\n%+v\n%+v", w, res.Metrics, ref.Metrics)
				}
			}
		})
	}
}

// TestPlannerAttachesSkewPlan: the end-to-end planner path on skewed
// data chooses a skew plan for hash-equi jobs and still matches the
// naive reference result.
func TestPlannerAttachesSkewPlan(t *testing.T) {
	l := zipfKeyRelation("L", 600, 1.3, 300, 51)
	r := zipfKeyRelation("R", 200, 1.3, 300, 52)
	// Model multi-GB inputs so the cost model wants enough reducers for
	// the hot key to cross the split threshold.
	l.VolumeMultiplier = 4e9 / float64(l.EncodedSize())
	r.VolumeMultiplier = 1e9 / float64(r.EncodedSize())
	db := newTestDB(t, l, r)
	q := query.MustNew("skewq", []string{"L", "R"}, []predicate.Condition{
		predicate.C("L", "k", predicate.EQ, "R", "k"),
	})
	pl := testPlanner(8)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	attached := false
	for _, pj := range plan.Jobs {
		if pj.Skew != nil {
			attached = true
		}
	}
	if !attached {
		t.Error("planner attached no skew plan on Zipf(1.3) data")
	}
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRS := resultSet(res.Output), resultSet(want)
	if !wantRS.Equal(got) {
		t.Errorf("skew-planned result mismatch: %d vs %d rows", got.Len(), wantRS.Len())
	}
}

// TestSkewPlanForGates: no plan on uniform data, none for Hilbert
// jobs, none below two reducers.
func TestSkewPlanForGates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	u := randRelation("U", 400, 390, rng) // near-unique keys
	v := randRelation("V", 400, 390, rng)
	db := newTestDB(t, u, v)
	conds := predicate.Conjunction{predicate.C("U", "a", predicate.EQ, "V", "a")}
	if p := SkewPlanFor(db.Catalog, KindHashEqui, conds, 16, skew.DefaultThreshold); p != nil {
		t.Errorf("uniform data produced a skew plan: %+v", p)
	}
	l := zipfKeyRelation("L", 1000, 1.3, 500, 62)
	r := zipfKeyRelation("R", 300, 1.3, 500, 63)
	db2 := newTestDB(t, l, r)
	hot := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	if p := SkewPlanFor(db2.Catalog, KindHilbertTheta, hot, 16, skew.DefaultThreshold); p != nil {
		t.Error("Hilbert job got a skew plan")
	}
	if p := SkewPlanFor(db2.Catalog, KindHashEqui, hot, 1, skew.DefaultThreshold); p != nil {
		t.Error("single-reducer job got a skew plan")
	}
	if p := SkewPlanFor(db2.Catalog, KindHashEqui, hot, 16, skew.DefaultThreshold); p == nil {
		t.Error("hot single-condition equi job got no plan")
	}
}

// TestMaxJoinHotFracKnown: a measured-uniform catalog feeds the σ model
// pmax 0, and a hot key its fraction.
func TestMaxJoinHotFracKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	u := randRelation("U", 400, 390, rng) // near-unique keys
	v := randRelation("V", 400, 390, rng)
	conds := predicate.Conjunction{predicate.C("U", "a", predicate.EQ, "V", "a")}
	if pmax := maxJoinHotFrac(newTestDB(t, u, v).Catalog, conds, KindHashEqui); pmax != 0 {
		t.Errorf("annotated uniform catalog: pmax %v, want 0", pmax)
	}
	hot := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	db := newTestDB(t, zipfKeyRelation("L", 1000, 1.3, 500, 62), zipfKeyRelation("R", 300, 1.3, 500, 63))
	if pmax := maxJoinHotFrac(db.Catalog, hot, KindHashEqui); pmax < skew.MinFrac {
		t.Errorf("Zipf(1.3) catalog: pmax %v, want >= %v", pmax, skew.MinFrac)
	}
}
