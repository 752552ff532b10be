package main

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/workloads"
)

// workload is one fixed input + query the benchmark runs. Batch
// workloads run one query per operation through the cmd/thetajoin call
// sequence; the served workload issues HTTP requests against a resident
// server.Service, as cmd/thetad's clients do.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	calls     int     // generated CDR rows at full scale
	stations  int     // base stations (distinct join keys of bsc/bs)
	nominalGB float64 // modeled volume of the calls table; 0 = unscaled
	// stationsTable adds the stations(bs,region,cap) dimension table.
	stationsTable bool
	// spillBudget > 0 forces the shuffle out of core: it becomes
	// mr.Config.SpillBudgetBytes and the dfs.BlockStore cache budget.
	spillBudget int64

	specs  []string // one query for batch workloads, the mix for served
	served bool

	// Pinned identity of the result at full scale with -seed 1.
	pinRows int
	pinHash string

	// shape asserts, at full scale, the planner shape the workload was
	// chosen for; a workload that silently stops exercising its layer
	// must fail loudly rather than keep reporting numbers.
	shape func(r *workloadResult) error
}

// servedBlock is the number of requests one served operation block
// issues; the mix's specs are requested round-robin within it.
const servedBlock = 40

var suite = []*workload{
	{
		name:      "q1_merge",
		why:       "paper Q1: two independent jobs (hash-equi, Hilbert-theta) joined by the rid-merge; only here core.MergeOutputs carries weight",
		calls:     400,
		stations:  50,
		nominalGB: 100,
		pinRows:   75069,
		pinHash:   "bd153cb16eedcc4a",
		specs:     []string{"FROM calls t1, calls t2, calls t3 WHERE t1.bt <= t2.bt AND t1.l >= t2.l AND t2.bsc = t3.bsc AND t2.d = t3.d"},
		shape: func(r *workloadResult) error {
			if j, m := r.layer("core.plan_jobs"), r.layer("core.merge_steps"); j != 2 || m < 1 {
				return fmt.Errorf("want 2 planned jobs and >=1 merge step, got %v jobs, %v steps", j, m)
			}
			return nil
		},
	},
	{
		name:     "chain3_out",
		why:      "output-heavy: one share-grid job emits 98k rows, so reducer row materialisation, assembly, ContentHash and CSV are 58% of the query",
		calls:    1200,
		stations: 50,
		pinRows:  97712,
		pinHash:  "5430cf3f367a44fd",
		specs:    []string{"FROM calls t1, calls t2, calls t3 WHERE t1.bt < t2.bt AND t1.id = t2.id AND t2.bsc = t3.bsc AND t2.d < t3.d"},
	},
	{
		name:     "band_scan",
		why:      "input/shuffle-bound band self-join: load, Analyze, map, k-way merge and indexed band probes; the output path is under 2%, so an output-path gain must show no change here",
		calls:    60000,
		stations: 50,
		pinRows:  3216,
		pinHash:  "754f4431414e0bd5",
		specs:    []string{"FROM calls t1, calls t2 WHERE t1.bt < t2.bt AND t1.bt + 5 > t2.bt"},
	},
	{
		name:     "plan_bound",
		why:      "selective 4-way chain with 26 join-path candidates: joinpath, costEdge, sample selectivity, setcover and schedule dominate; execution is a few percent",
		calls:    600,
		stations: 50,
		pinRows:  6150,
		pinHash:  "1c4943fc64ef5c9b",
		specs:    []string{"FROM calls t1, calls t2, calls t3, calls t4 WHERE t1.id = t2.id AND t1.bt < t2.bt AND t2.id = t3.id AND t2.bt < t3.bt AND t3.id = t4.id"},
		shape: func(r *workloadResult) error {
			if share := r.layer("core.plan_s") / r.EndToEnd["query_s_p50"].Value; share <= 0.7 {
				return fmt.Errorf("planning is %.2f of query_s_p50, want > 0.7", share)
			}
			return nil
		},
	},
	{
		name:          "fk_skew_mem",
		why:           "Zipf-skewed FK join on a dictionary-coded string key: hash-equi at kR=96 with a skew.JobPlan, in-memory shuffle; the control twin of fk_skew_spill",
		calls:         60000,
		stations:      2000,
		nominalGB:     5,
		stationsTable: true,
		pinRows:       60000,
		pinHash:       "59e4f3a7cc378b4c",
		specs:         []string{"FROM calls c, stations s WHERE c.bs = s.bs"},
		shape: func(r *workloadResult) error {
			if p, s := r.layer("skew.jobs_with_plan"), r.layer("mr.spill_runs"); p != 1 || s != 0 {
				return fmt.Errorf("want 1 job with a skew plan and 0 spill runs, got %v and %v", p, s)
			}
			return nil
		},
	},
	{
		name:          "fk_skew_spill",
		why:           "same data and query as fk_skew_mem with a 64 KiB spill budget: every pair goes through the spill store, CRC frames, page cache and streaming merge",
		calls:         60000,
		stations:      2000,
		nominalGB:     5,
		stationsTable: true,
		spillBudget:   64 << 10,
		pinRows:       60000,
		pinHash:       "59e4f3a7cc378b4c",
		specs:         []string{"FROM calls c, stations s WHERE c.bs = s.bs"},
		shape: func(r *workloadResult) error {
			if p, s := r.layer("skew.jobs_with_plan"), r.layer("mr.spill_runs"); p != 1 || s <= 0 {
				return fmt.Errorf("want 1 job with a skew plan and spill runs > 0, got %v and %v", p, s)
			}
			return nil
		},
	},
	{
		name:     "served_mix",
		why:      "the thetad user's view: closed-loop HTTP clients over a resident service with a warm plan cache; a planner speed-up must move setup_s, not the steady state",
		calls:    2000,
		stations: 50,
		served:   true,
		pinRows:  7321,
		pinHash:  "eac8c6c1a27dccfc",
		specs: []string{
			"FROM calls t1, calls t2 WHERE t1.id = t2.id AND t1.bt < t2.bt",
			"FROM calls t1, calls t2 WHERE t1.bt < t2.bt AND t1.bt + 60 > t2.bt",
			"FROM calls t1, calls t2 WHERE t1.bs = t2.bs AND t1.d = t2.d AND t1.l = t2.l AND t1.bt < t2.bt",
			"FROM calls t1, calls t2, calls t3 WHERE t1.id = t2.id AND t1.bt < t2.bt AND t2.id = t3.id AND t2.bt < t3.bt AND t1.l <= t3.l",
			"FROM calls a, calls b WHERE a.id = b.id AND a.bt < b.bt",
		},
		shape: func(r *workloadResult) error {
			if h, rej := r.layer("server.cache_hit_ratio"), r.layer("server.rejected"); h != 1 || rej != 0 {
				return fmt.Errorf("want every timed request a cache hit and none rejected, got hit ratio %v, %v rejected", h, rej)
			}
			return nil
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range suite {
		if w.name == name {
			return w
		}
	}
	return nil
}

// dataSeed pins the CDR generator. Work per query follows the data's
// join structure, and at these sizes independent draws differ too much
// to compare: over ten generator seeds q1_merge's result ranged from 67k
// to 94k rows and its plan moved between 64 and 77 Hilbert reducers.
const dataSeed = 1

// generate builds the workload's relations with `calls` CDR rows. The
// run's seed permutes the rows of the pinned data set: row ids, catalog
// samples, map splits and reducer placement all follow it (and so does
// the result hash, which covers the rid columns), while the join
// structure — the amount of work — stays the workload's own. The seed
// reaches the program only through the generated files.
func (w *workload) generate(seed int64, calls int) []*relation.Relation {
	stations := min(w.stations, calls)
	rels := []*relation.Relation{workloads.MobileTable(workloads.MobileConfig{
		Tuples: calls, Stations: stations, Seed: dataSeed, NominalGB: w.nominalGB,
	})}
	if w.stationsTable {
		rels = append(rels, stationsTable(stations))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, r := range rels {
		rng.Shuffle(len(r.Tuples), func(i, j int) { r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i] })
	}
	return rels
}

// stationsTable is the FK join's dimension side: one row per base
// station keyed by the same textual identifier the calls carry.
func stationsTable(n int) *relation.Relation {
	r := relation.New("stations", relation.MustSchema(
		relation.Column{Name: "bs", Kind: relation.KindString},
		relation.Column{Name: "region", Kind: relation.KindInt},
		relation.Column{Name: "cap", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Str(workloads.StationName(int64(i))),
			relation.Int(int64(i % 8)),
			relation.Int(int64(100 + i%37)),
		})
	}
	return r
}
