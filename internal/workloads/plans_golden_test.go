package workloads

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/query"
	"repro/internal/relation"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden and testdata/estimates.golden from the current planner")

// goldenCase is one query the performance benchmark (benchmark/
// workloads.go) or Fig. 12 plans, at the size it plans it.
type goldenCase struct {
	name      string
	calls     int
	stations  int
	nominalGB float64
	fkTable   bool // add the stations(bs,region,cap) dimension table
	spec      string
}

// The ten distinct query specs of benchmark/workloads.go, copied:
// benchmark/ is its own module and is not imported.
var goldenCases = []goldenCase{
	{name: "q1_merge", calls: 400, stations: 50, nominalGB: 100,
		spec: "FROM calls t1, calls t2, calls t3 WHERE t1.bt <= t2.bt AND t1.l >= t2.l AND t2.bsc = t3.bsc AND t2.d = t3.d"},
	{name: "chain3_out", calls: 1200, stations: 50,
		spec: "FROM calls t1, calls t2, calls t3 WHERE t1.bt < t2.bt AND t1.id = t2.id AND t2.bsc = t3.bsc AND t2.d < t3.d"},
	{name: "band_scan", calls: 60000, stations: 50,
		spec: "FROM calls t1, calls t2 WHERE t1.bt < t2.bt AND t1.bt + 5 > t2.bt"},
	{name: "plan_bound", calls: 600, stations: 50,
		spec: "FROM calls t1, calls t2, calls t3, calls t4 WHERE t1.id = t2.id AND t1.bt < t2.bt AND t2.id = t3.id AND t2.bt < t3.bt AND t3.id = t4.id"},
	{name: "fk_skew", calls: 60000, stations: 2000, nominalGB: 5, fkTable: true,
		spec: "FROM calls c, stations s WHERE c.bs = s.bs"},
	{name: "served_mix/0", calls: 2000, stations: 50,
		spec: "FROM calls t1, calls t2 WHERE t1.id = t2.id AND t1.bt < t2.bt"},
	{name: "served_mix/1", calls: 2000, stations: 50,
		spec: "FROM calls t1, calls t2 WHERE t1.bt < t2.bt AND t1.bt + 60 > t2.bt"},
	{name: "served_mix/2", calls: 2000, stations: 50,
		spec: "FROM calls t1, calls t2 WHERE t1.bs = t2.bs AND t1.d = t2.d AND t1.l = t2.l AND t1.bt < t2.bt"},
	{name: "served_mix/3", calls: 2000, stations: 50,
		spec: "FROM calls t1, calls t2, calls t3 WHERE t1.id = t2.id AND t1.bt < t2.bt AND t2.id = t3.id AND t2.bt < t3.bt AND t1.l <= t3.l"},
	{name: "served_mix/4", calls: 2000, stations: 50,
		spec: "FROM calls a, calls b WHERE a.id = b.id AND a.bt < b.bt"},
}

// goldenKP is the processing-unit count thetajoin, thetad and the
// benchmark default to.
const goldenKP = 96

func goldenPlanner(cfg mr.Config) *core.Planner {
	if cfg.MapSlots > goldenKP {
		cfg.MapSlots = goldenKP
	}
	cfg.ReduceSlots = goldenKP
	return core.NewPlanner(cfg, goldenKP)
}

// goldenMobileDB builds a benchmark workload's database the way the
// benchmark does: the pinned data set (generator seed 1), its rows
// permuted by run seed 1, NewDB(1000, 1).
func goldenMobileDB(gc goldenCase) (*core.DB, error) {
	rels := []*relation.Relation{MobileTable(MobileConfig{
		Tuples: gc.calls, Stations: gc.stations, Seed: 1, NominalGB: gc.nominalGB,
	})}
	if gc.fkTable {
		st := relation.New("stations", relation.MustSchema(
			relation.Column{Name: "bs", Kind: relation.KindString},
			relation.Column{Name: "region", Kind: relation.KindInt},
			relation.Column{Name: "cap", Kind: relation.KindInt},
		))
		for i := 0; i < gc.stations; i++ {
			st.MustAppend(relation.Tuple{
				relation.Str(StationName(int64(i))),
				relation.Int(int64(i % 8)),
				relation.Int(int64(100 + i%37)),
			})
		}
		rels = append(rels, st)
	}
	rng := rand.New(rand.NewSource(1))
	for _, r := range rels {
		rng.Shuffle(len(r.Tuples), func(i, j int) { r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i] })
	}
	return core.NewDB(1000, 1, rels...)
}

// writePlan renders everything the planner decided about q: per job
// the kind, conditions, relation order, k_R, units and σ fraction at
// full precision, and every heavy-hitter report of its skew plan.
func writePlan(w *bytes.Buffer, name string, plan *core.Plan) {
	fmt.Fprintf(w, "== %s: %d jobs ==\n", name, len(plan.Jobs))
	for _, j := range plan.Jobs {
		fmt.Fprintf(w, "%s kind=%s conds=[%s] rels=%v kR=%d units=%d sigma=%v\n",
			j.Name, j.Kind, j.Conds, j.RelOrder, j.Reducers, j.Units, j.SigmaFrac)
		if j.Skew == nil {
			continue
		}
		fmt.Fprintf(w, "  skew threshold=%v\n", j.Skew.Threshold)
		var lines []string
		for rel, byCols := range j.Skew.Reports {
			for cols, hot := range byCols {
				for _, hk := range hot {
					lines = append(lines, reportLine(rel, strings.ReplaceAll(cols, "\x1f", ","), hk.Values, hk.Count, hk.Frac))
				}
			}
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
}

// writeEstimates renders the cost model's numbers for q at full float64
// precision: the plan's makespan and merge estimates and, per job, its
// scheduled time and the whole T(k) profile.
func writeEstimates(w *bytes.Buffer, name string, plan *core.Plan) {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(w, "== %s: makespan=%s merge=%s ==\n", name, g(plan.EstimatedMakespan), g(plan.MergeEstimate))
	for _, j := range plan.Jobs {
		prof := make([]string, len(j.Profile))
		for i, v := range j.Profile {
			prof[i] = g(v)
		}
		fmt.Fprintf(w, "%s est=%s profile=[%s]\n", j.Name, g(j.EstTime), strings.Join(prof, " "))
	}
}

func reportLine(rel, cols string, values []relation.Value, count int64, frac float64) string {
	vs := make([]string, len(values))
	for i, v := range values {
		vs[i] = v.String()
	}
	return fmt.Sprintf("  hot %s(%s) values=(%s) count=%d frac=%v", rel, cols, strings.Join(vs, ","), count, frac)
}

// goldenPlan is one query plans.golden pins, as planned, with the
// planner and database that planned it.
type goldenPlan struct {
	name string
	q    *query.Query
	db   *core.DB
	pl   *core.Planner
	plan *core.Plan
}

// goldenPlans plans every query plans.golden pins: the ten benchmark
// queries, then Fig. 12 as bench.Suite.TPCHComparison(96) plans it at
// thetabench -quick size — the 200 GB volume, suite seed 1 and the
// suite's engine configuration.
func goldenPlans(t *testing.T) []goldenPlan {
	t.Helper()
	var out []goldenPlan
	add := func(name string, q *query.Query, db *core.DB, pl *core.Planner) {
		plan, err := pl.Plan(q, db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenPlan{name: name, q: q, db: db, pl: pl, plan: plan})
	}
	for _, gc := range goldenCases {
		db, err := goldenMobileDB(gc)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		q, aliases, err := query.Parse("query", gc.spec)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for alias, table := range aliases {
			if alias != table {
				if err := db.Alias(alias, table); err != nil {
					t.Fatalf("%s: %v", gc.name, err)
				}
			}
		}
		add(gc.name, q, db, goldenPlanner(mr.DefaultConfig()))
	}
	for _, qn := range []int{7, 17, 18, 21} {
		q, err := TPCHQuery(qn)
		if err != nil {
			t.Fatal(err)
		}
		tcfg := DefaultTPCHConfig()
		tcfg.Scale = TPCHRowsFor(qn, 200)
		tcfg.NominalGB = 200
		tcfg.Seed = int64(qn*1000) + 200
		db, err := TPCHDB(tcfg, 300)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mr.DefaultConfig()
		cfg.TuplesPerMapTask = 256
		add(fmt.Sprintf("tpch_q%d_200GB", qn), q, db, goldenPlanner(cfg))
	}
	return out
}

// TestPlanGoldens pins whole plans — not one field of one — for the
// ten benchmark queries and the Fig. 12 TPC-H queries, so a change to
// the statistics or the cost model that moves any decision shows up as
// a diff of testdata/plans.golden, and any change to a modeled second,
// down to the last bit, as a diff of testdata/estimates.golden.
// Regenerate with `go test ./internal/workloads -run TestPlanGoldens -update`.
func TestPlanGoldens(t *testing.T) {
	var got, est bytes.Buffer
	for _, gp := range goldenPlans(t) {
		writePlan(&got, gp.name, gp.plan)
		writeEstimates(&est, gp.name, gp.plan)
	}
	checkGolden(t, "plans.golden", got.Bytes())
	checkGolden(t, "estimates.golden", est.Bytes())
}

// TestPlanCoverReproducesPlan: scheduling the cover Plan chose through
// PlanCover yields the same plan — every job, k_R, unit count, skew
// report and modeled second, as the goldens render them.
func TestPlanCoverReproducesPlan(t *testing.T) {
	for _, gp := range goldenPlans(t) {
		cover := make([][]int, len(gp.plan.Jobs))
		for i, j := range gp.plan.Jobs {
			cover[i] = j.EdgeIDs
		}
		again, err := gp.pl.PlanCover(gp.q, gp.db, cover)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		var want, got bytes.Buffer
		writePlan(&want, gp.name, gp.plan)
		writeEstimates(&want, gp.name, gp.plan)
		writePlan(&got, gp.name, again)
		writeEstimates(&got, gp.name, again)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: PlanCover(%v) differs from Plan\n--- Plan ---\n%s--- PlanCover ---\n%s",
				gp.name, cover, want.Bytes(), got.Bytes())
		}
	}
}

// TestGoldenPlansNeverReplan pins why re-planning needs no switch: the
// planner emits only jobs over base relations, so executing any golden
// plan re-derives nothing at dispatch time.
func TestGoldenPlansNeverReplan(t *testing.T) {
	for _, gp := range goldenPlans(t) {
		res, err := gp.pl.Execute(gp.plan, gp.db)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		if len(res.Replanned) != 0 {
			t.Errorf("%s: executing the plan replanned %v", gp.name, res.Replanned)
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update after checking the change is intended)\n--- got ---\n%s", path, got)
	}
}
