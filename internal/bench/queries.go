package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workloads"
)

// Table2 reports the mobile benchmark query statistics: relation
// count, inequality functions, join condition count and the measured
// result selectivity on the generated data.
func (s *Suite) Table2() (*Table, error) {
	t := &Table{
		Title:   "Table 2: mobile benchmark query statistics",
		Columns: []string{"Q", "Relations Cnt.", "Inequality Func.", "Join Cnt.", "Result Sel."},
	}
	tuples := 120
	if s.Quick {
		tuples = 60
	}
	for n := 1; n <= 4; n++ {
		q, err := workloads.MobileQuery(n)
		if err != nil {
			return nil, err
		}
		cfg := workloads.DefaultMobileConfig()
		cfg.Tuples = tuples
		cfg.Seed = s.seedFor(int64(n))
		db, err := workloads.MobileDB(cfg, 200)
		if err != nil {
			return nil, err
		}
		sel, err := core.ExactQuerySelectivity(q, db)
		if err != nil {
			return nil, err
		}
		t.AddRow(q.Name,
			fmt.Sprintf("%d", len(q.Relations)),
			opsString(q),
			fmt.Sprintf("%d", len(q.Conditions)),
			fmt.Sprintf("%.5f", sel))
	}
	return t, nil
}

// Table3 reports the TPC-H query statistics.
func (s *Suite) Table3() (*Table, error) {
	t := &Table{
		Title:   "Table 3: TPC-H query statistics",
		Columns: []string{"Q", "Relations Cnt.", "Inequality Func.", "Join Cnt.", "Result Sel."},
	}
	scale := 0.4
	if s.Quick {
		scale = 0.2
	}
	for _, n := range []int{7, 17, 18, 21} {
		q, err := workloads.TPCHQuery(n)
		if err != nil {
			return nil, err
		}
		cfg := workloads.DefaultTPCHConfig()
		cfg.Scale = scale
		cfg.Seed = s.seedFor(int64(n))
		db, err := workloads.TPCHDB(cfg, 200)
		if err != nil {
			return nil, err
		}
		sel, err := core.ExactQuerySelectivity(q, db)
		if err != nil {
			return nil, err
		}
		t.AddRow(q.Name,
			fmt.Sprintf("%d", len(q.Relations)),
			opsString(q),
			fmt.Sprintf("%d", len(q.Conditions)),
			fmt.Sprintf("%.2e", sel))
	}
	return t, nil
}

func opsString(q *query.Query) string {
	ops := core.InequalityFuncs(q)
	out := "{"
	for i, op := range ops {
		if i > 0 {
			out += ","
		}
		out += op.String()
	}
	return out + "}"
}

// comparisonRow runs one (query, volume) cell of Fig. 9/10/12/13:
// the paper's method plus the three baselines. The returned shuffle
// bytes are our method's total network copy volume (the interned
// string keys make this visibly smaller than the raw-string layout).
func (s *Suite) comparisonRow(q *query.Query, db *core.DB, kp int) ([]float64, int64, error) {
	cfg := s.Cfg
	if cfg.MapSlots > kp {
		cfg.MapSlots = kp
	}
	cfg.ReduceSlots = kp

	pl := core.NewPlanner(cfg, kp)
	plan, err := pl.Plan(q, db)
	if err != nil {
		return nil, 0, fmt.Errorf("our method on %s: %w", q.Name, err)
	}
	res, err := pl.ExecuteContext(s.ctx(), plan, db)
	if err != nil {
		return nil, 0, fmt.Errorf("our method on %s: %w", q.Name, err)
	}
	times := []float64{res.Makespan}
	// Baselines request the cluster's configured reducer capacity (the
	// "as many reduce tasks as possible" policy) even when the
	// available units kP are fewer — the k_P obliviousness the paper's
	// Fig. 10/13 exposes.
	for _, st := range []baselines.Strategy{baselines.YSmart(), baselines.Hive(), baselines.Pig()} {
		bres, err := baselines.Run(s.ctx(), st, cfg, q, db, s.Cfg.ReduceSlots)
		if err != nil {
			return nil, 0, fmt.Errorf("%s on %s: %w", st.Name, q.Name, err)
		}
		times = append(times, bres.TotalTime)
	}
	return times, res.ShuffleBytes, nil
}

// MobileComparison is Fig. 9 (kp=96) and Fig. 10 (kp=64): execution
// time of Q1–Q4 over the mobile data at 20/100/500 GB.
func (s *Suite) MobileComparison(kp int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Fig %s: mobile queries, kP <= %d", figNameMobile(kp), kp),
		Columns: []string{"Q", "volume", "Our Method(s)", "YSmart(s)", "Hive(s)", "Pig(s)", "Shuffle(GB)"},
	}
	volumes := []float64{20, 100, 500}
	queries := []int{1, 2, 3, 4}
	if s.Quick {
		volumes = []float64{20}
		queries = []int{1, 3}
	}
	for _, qn := range queries {
		q, err := workloads.MobileQuery(qn)
		if err != nil {
			return nil, err
		}
		for _, gb := range volumes {
			mcfg := workloads.DefaultMobileConfig()
			mcfg.Tuples = workloads.MobileTuplesFor(qn, gb)
			mcfg.NominalGB = gb
			mcfg.Seed = s.seedFor(int64(qn*1000) + int64(gb))
			db, err := workloads.MobileDB(mcfg, 300)
			if err != nil {
				return nil, err
			}
			times, shuffle, err := s.comparisonRow(q, db, kp)
			if err != nil {
				return nil, err
			}
			t.AddRow(q.Name, fmtGB(gb),
				fmtSec(times[0]), fmtSec(times[1]), fmtSec(times[2]), fmtSec(times[3]),
				fmt.Sprintf("%.2f", float64(shuffle)/1e9))
		}
	}
	return t, nil
}

func figNameMobile(kp int) string {
	if kp >= 96 {
		return "9"
	}
	return "10"
}

// TPCHComparison is Fig. 12 (kp=96) and Fig. 13 (kp=64): Q7, Q17, Q18
// and Q21 over 200/500/1000 GB TPC-H data.
func (s *Suite) TPCHComparison(kp int) (*Table, error) {
	fig := "12"
	if kp < 96 {
		fig = "13"
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig %s: TPC-H queries, kP <= %d", fig, kp),
		Columns: []string{"Q", "volume", "Our Method(s)", "YSmart(s)", "Hive(s)", "Pig(s)", "Shuffle(GB)"},
	}
	volumes := []float64{200, 500, 1000}
	queries := []int{7, 17, 18, 21}
	if s.Quick {
		volumes = []float64{200}
		queries = []int{17}
	}
	for _, qn := range queries {
		q, err := workloads.TPCHQuery(qn)
		if err != nil {
			return nil, err
		}
		for _, gb := range volumes {
			tcfg := workloads.DefaultTPCHConfig()
			tcfg.Scale = workloads.TPCHRowsFor(qn, gb)
			tcfg.NominalGB = gb
			tcfg.Seed = s.seedFor(int64(qn*1000) + int64(gb))
			db, err := workloads.TPCHDB(tcfg, 300)
			if err != nil {
				return nil, err
			}
			times, shuffle, err := s.comparisonRow(q, db, kp)
			if err != nil {
				return nil, err
			}
			t.AddRow(q.Name, fmtGB(gb),
				fmtSec(times[0]), fmtSec(times[1]), fmtSec(times[2]), fmtSec(times[3]),
				fmt.Sprintf("%.2f", float64(shuffle)/1e9))
		}
	}
	return t, nil
}

// Fig11 compares data-loading time across methods and volumes.
func (s *Suite) Fig11() (*Table, error) {
	t := &Table{
		Title:   "Fig 11: data loading time",
		Columns: []string{"volume", "Hive(s)", "Plain Upload(s)", "Our Method(s)"},
	}
	volumes := []float64{1, 10, 50, 100, 250, 500}
	if s.Quick {
		volumes = []float64{1, 100, 500}
	}
	for _, gb := range volumes {
		var secs [3]float64
		for i, m := range []loadMethod{loadHive, loadPlain, loadOurs} {
			mcfg := workloads.DefaultMobileConfig()
			mcfg.Tuples = 2000
			mcfg.NominalGB = gb
			secs[i] = loadSeconds(12, workloads.MobileTable(mcfg), m, 1000, 1)
		}
		t.AddRow(fmtGB(gb), fmtSec(secs[0]), fmtSec(secs[1]), fmtSec(secs[2]))
	}
	return t, nil
}

// loadMethod is one of Fig. 11's three loading paths.
type loadMethod uint8

const (
	loadPlain loadMethod = iota // plain Hadoop upload
	loadHive                    // Hive warehouse load: every record parsed and validated
	loadOurs                    // upload + sampling pass + statistics build (§6.3)
)

// loadSeconds prices loading r into an HDFS of nodes DataNodes by the
// given method. Every node uploads its local shard in parallel and
// writes mr.Replication copies through the replication pipeline,
// charged at its bottleneck: one read and one write per node plus
// (repl−1) network-priced writes. Hive adds a 0.6 read pass across the
// nodes; our method draws a sampleSize sample (relation.Analyze, the
// statistics the planner reads) and adds a 0.45 read pass and a small
// index write — a little more than plain uploading, converging towards
// Hive's cost at large volumes (§6.3, Fig. 11).
func loadSeconds(nodes int, r *relation.Relation, method loadMethod, sampleSize int, seed int64) float64 {
	bytes := r.ModeledSize()
	rates := mr.PaperRates()
	writeBps, readBps := rates.WriteBps, rates.ReadBps
	perNode := float64(bytes) / float64(nodes)
	seconds := perNode/readBps + perNode/writeBps
	seconds += perNode * float64(mr.Replication-1) / rates.NetBps
	switch method {
	case loadHive:
		seconds += 0.6 * float64(bytes) / readBps / float64(nodes)
	case loadOurs:
		stats := relation.Analyze(r, sampleSize, rand.New(rand.NewSource(seed)))
		sampleBytes := min(float64(sampleSize)*stats.AvgTuple, float64(bytes))
		seconds += sampleBytes/readBps + 0.45*float64(bytes)/readBps/float64(nodes)
		seconds += float64(r.Schema.Len()) * 1024 / writeBps
	}
	return seconds
}
