package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workloads"
)

// Ablations probe the design choices DESIGN.md calls out: the Hilbert
// curve against naive linearisations (Theorem 2), one-job multi-way
// evaluation against pairwise cascades (§1's central observation),
// model-chosen k_R against Hive's max-reducers default (Eq. 10 /
// Fig. 6), and k_P-aware scheduling against oblivious serialisation
// (§4.2).

// AblationPartition compares duplication scores (Eq. 7) of the Hilbert
// partition against row-major and random cell linearisations.
func (s *Suite) AblationPartition() (*Table, error) {
	t := &Table{
		Title:   "Ablation: partition score (Eq.7), Hilbert vs row-major vs random",
		Columns: []string{"kR", "Hilbert", "RowMajor", "Random", "IdealLB"},
	}
	cards := []int{400, 400, 400}
	krs := []int{2, 4, 8, 16, 32, 64}
	if s.Quick {
		krs = []int{4, 32}
	}
	maxCells := 1 << 12
	for _, kr := range krs {
		h, err := core.ScoreForKR(cards, kr, maxCells)
		if err != nil {
			return nil, err
		}
		rm := scoreForLinearization(cards, kr, maxCells, linRowMajor)
		rnd := scoreForLinearization(cards, kr, maxCells, linRandom(kr))
		t.AddRow(fmt.Sprintf("%d", kr),
			fmt.Sprintf("%.0f", h),
			fmt.Sprintf("%.0f", rm),
			fmt.Sprintf("%.0f", rnd),
			fmt.Sprintf("%.0f", core.IdealScore(cards, kr)))
	}
	return t, nil
}

// linFunc maps grid axes to a linear order in [0, N).
type linFunc func(axes []uint32, side uint32) uint64

func linRowMajor(axes []uint32, side uint32) uint64 {
	var idx uint64
	for _, a := range axes {
		idx = idx*uint64(side) + uint64(a)
	}
	return idx
}

// linRandom shuffles cells pseudo-randomly (a hash of the axes), which
// destroys locality entirely — the worst case for duplication.
func linRandom(seed int) linFunc {
	return func(axes []uint32, side uint32) uint64 {
		x := uint64(seed) * 0x9e3779b97f4a7c15
		for _, a := range axes {
			x ^= uint64(a) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		}
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return x
	}
}

// scoreForLinearization computes Eq. 7 for an arbitrary cell ordering:
// cells sorted by lin() are cut into kr contiguous segments.
func scoreForLinearization(cards []int, kr, maxCells int, lin linFunc) float64 {
	m := len(cards)
	// Match the Hilbert partitioner's grid resolution.
	eta := 1
	for (m*(eta+1)) <= 62 && (uint64(1)<<uint(m*(eta+1))) <= uint64(maxCells) && eta+1 <= 16 {
		eta++
	}
	side := uint32(1) << uint(eta)
	nCells := uint64(1) << uint(m*eta)

	// Rank cells by lin value (stable on ties via cell index).
	type cell struct {
		key  uint64
		axes []uint32
	}
	cells := make([]cell, 0, nCells)
	axes := make([]uint32, m)
	var fill func(dim int)
	fill = func(dim int) {
		if dim == m {
			cp := append([]uint32(nil), axes...)
			cells = append(cells, cell{key: lin(cp, side), axes: cp})
			return
		}
		for a := uint32(0); a < side; a++ {
			axes[dim] = a
			fill(dim + 1)
		}
	}
	fill(0)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].key != cells[j].key {
			return cells[i].key < cells[j].key
		}
		return linRowMajor(cells[i].axes, side) < linRowMajor(cells[j].axes, side)
	})
	// Distinct components per (dim, coord).
	type dc struct {
		dim   int
		coord uint32
	}
	last := map[dc]int32{}
	counts := map[dc]int{}
	for rank, c := range cells {
		comp := int32(uint64(rank) * uint64(kr) / nCells)
		for d, a := range c.axes {
			k := dc{d, a}
			if prev, ok := last[k]; !ok || prev != comp {
				last[k] = comp
				counts[k]++
			}
		}
	}
	total := 0.0
	for k, n := range counts {
		perCoord := float64(cards[k.dim]) / float64(side)
		total += float64(n) * perCoord
	}
	return total
}

// AblationSingleVsCascade reproduces the paper's central observation:
// "under certain conditions, evaluating a multi-way join with one
// MapReduce job is much more efficient than with a sequence of
// MapReduce jobs". A 3-relation chain theta-join runs (a) as the
// planner's choice, (b) forced pairwise (MaxPathLen=1), across data
// volumes — the intermediate-result I/O makes the cascade lose as
// volume grows.
func (s *Suite) AblationSingleVsCascade() (*Table, error) {
	t := &Table{
		Title:   "Ablation: one-job multiway vs pairwise+merge vs Hive cascade",
		Columns: []string{"volume", "planner(s)", "single-job(s)", "pairwise+merge(s)", "cascade(s)", "jobs(planner)"},
	}
	volumes := []float64{5, 50, 500}
	if s.Quick {
		volumes = []float64{50}
	}
	for _, gb := range volumes {
		rng := rand.New(rand.NewSource(int64(gb)))
		rels := make([]*relation.Relation, 3)
		names := []string{"A", "B", "C"}
		for i := range rels {
			rels[i] = chainRel(names[i], 220, rng)
			rels[i].VolumeMultiplier = gb * 1e9 / 3 / float64(rels[i].EncodedSize())
		}
		db, err := core.NewDB(300, 1, rels...)
		if err != nil {
			return nil, err
		}
		q := query.MustNew("chain3", names, []predicate.Condition{
			predicate.C("A", "v", predicate.LT, "B", "v"),
			predicate.C("B", "w", predicate.GE, "C", "w"),
		})
		kp := 64
		cfg := s.Cfg
		cfg.ReduceSlots = kp

		free := core.NewPlanner(cfg, kp)
		free.Opts.MaxCells = 1 << 14
		freePlan, err := free.Plan(q, db)
		if err != nil {
			return nil, err
		}
		freeRes, err := free.ExecuteContext(s.ctx(), freePlan, db)
		if err != nil {
			return nil, err
		}
		single := core.NewPlanner(cfg, kp)
		single.Opts.MaxCells = 1 << 14
		single.Opts.ForceSingleJob = true
		_, singleRes, err := single.RunContext(s.ctx(), q, db)
		if err != nil {
			return nil, err
		}
		pairwise := core.NewPlanner(cfg, kp)
		pairwise.Opts.MaxCells = 1 << 14
		pairwise.Opts.MaxPathLen = 1
		_, pairRes, err := pairwise.RunContext(s.ctx(), q, db)
		if err != nil {
			return nil, err
		}
		cascade, err := baselines.Run(s.ctx(), baselines.Hive(), cfg, q, db, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtGB(gb), fmtSec(freeRes.Makespan), fmtSec(singleRes.Makespan),
			fmtSec(pairRes.Makespan), fmtSec(cascade.TotalTime),
			fmt.Sprintf("%d", len(freePlan.Jobs)))
	}
	return t, nil
}

func chainRel(name string, n int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "v", Kind: relation.KindInt},
		relation.Column{Name: "w", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(rng.Intn(1000))),
			relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// AblationFeedback probes the runtime feedback loop: a two-stage
// cascade whose second job consumes a Zipf-hot intermediate runs with
// static planning (pre-execution statistics only; the intermediate has
// none, so the downstream job hashes plainly) and with feedback
// re-planning (measured statistics re-derive its reducer count and
// hot-key splits at dispatch). Reported per mode: the downstream job's
// reducer balance, its reduce-task count, and the plan makespan — the
// two modes produce identical join output by construction.
func (s *Suite) AblationFeedback() (*Table, error) {
	t := &Table{
		Title:   "Ablation: static plan vs runtime feedback re-planning (Zipf cascade)",
		Columns: []string{"zipf s", "mode", "j2 balance", "j2 reducers", "makespan(s)", "replanned"},
	}
	shapes := []float64{1.1, 1.2, 1.4}
	if s.Quick {
		shapes = []float64{1.2}
	}
	const kr = 16
	for _, zs := range shapes {
		rng := rand.New(rand.NewSource(s.seedFor(int64(zs * 100))))
		l := zipfBenchRel("L", 1500, zs, 500, rng)
		r := zipfBenchRel("R", 400, zs, 500, rng)
		sr := uniformBenchRel("S", 400, 500, rng)
		l.VolumeMultiplier = 4e9 / float64(l.EncodedSize())
		r.VolumeMultiplier = 1e9 / float64(r.EncodedSize())
		sr.VolumeMultiplier = 1e9 / float64(sr.EncodedSize())
		db, err := core.NewDB(500, s.seedFor(1), l, r, sr)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"static", true}, {"feedback", false}} {
			pl := core.NewPlanner(s.Cfg, kr)
			pl.Opts.DisableReplan = mode.disable
			plan := cascadePlanFor(db, kr)
			res, err := pl.ExecuteContext(s.ctx(), plan, db)
			if err != nil {
				return nil, err
			}
			m := res.JobMetrics["casc-j2"]
			t.AddRow(fmt.Sprintf("%.1f", zs), mode.name,
				fmt.Sprintf("%.2f", m.BalanceRatio),
				fmt.Sprintf("%d", m.ReduceTasks),
				fmtSec(res.Makespan),
				fmt.Sprintf("%d", len(res.Replanned)))
		}
	}
	return t, nil
}

// cascadePlanFor hand-builds the two-stage cascade plan (the planner
// only emits jobs over base relations; cascades consuming produced
// intermediates are the executor's territory).
func cascadePlanFor(db *core.DB, kr int) *core.Plan {
	j1Conds := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	j2Conds := predicate.Conjunction{predicate.C("casc-j1", "L.k", predicate.EQ, "S", "k")}
	return &core.Plan{
		Query: &query.Query{Name: "casc"},
		Jobs: []core.PlannedJob{
			{
				Name: "casc-j1", Conds: j1Conds, RelOrder: []string{"L", "R"},
				Kind: core.KindHashEqui, Reducers: kr, Units: kr,
				Skew: core.SkewPlanFor(db.Catalog, core.KindHashEqui, j1Conds, kr, 0),
			},
			{
				Name: "casc-j2", Conds: j2Conds, RelOrder: []string{"casc-j1", "S"},
				Kind: core.KindHashEqui, Reducers: kr, Units: kr,
			},
		},
	}
}

func zipfBenchRel(name string, n int, s float64, domain int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(z.Uint64())),
			relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

func uniformBenchRel(name string, n, domain int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(rng.Intn(domain))),
			relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// AblationKR compares the model-selected reducer count against Hive's
// max-reducers default on a theta join (the Fig. 6 inflection point in
// action).
func (s *Suite) AblationKR() (*Table, error) {
	t := &Table{
		Title:   "Ablation: model-chosen kR vs max reducers",
		Columns: []string{"volume", "chosen kR", "time@chosen(s)", "time@max(s)"},
	}
	volumes := []float64{1, 10, 100}
	if s.Quick {
		volumes = []float64{10}
	}
	kp := 96
	cfg := s.Cfg
	cfg.ReduceSlots = kp
	for _, gb := range volumes {
		rng := rand.New(rand.NewSource(int64(gb) + 7))
		a := chainRel("A", 200, rng)
		b := chainRel("B", 200, rng)
		a.VolumeMultiplier = gb * 1e9 / 2 / float64(a.EncodedSize())
		b.VolumeMultiplier = gb * 1e9 / 2 / float64(b.EncodedSize())
		db, err := core.NewDB(300, 1, a, b)
		if err != nil {
			return nil, err
		}
		ra, _ := db.Relation("A")
		rb, _ := db.Relation("B")
		conds := predicate.Conjunction{predicate.C("A", "v", predicate.LT, "B", "v")}

		timeFor := func(kr int) (float64, error) {
			job, err := core.BuildThetaJob(fmt.Sprintf("krab-%d", kr),
				[]*relation.Relation{ra, rb}, conds, kr, 1<<14)
			if err != nil {
				return 0, err
			}
			res, err := mr.Run(s.ctx(), cfg, job)
			if err != nil {
				return 0, err
			}
			return res.Metrics.Sim.Total, nil
		}
		// Model choice: sweep via the planner profile (argmin of T(k)).
		pl := core.NewPlanner(cfg, kp)
		pl.Opts.MaxCells = 1 << 14
		q := query.MustNew("krq", []string{"A", "B"}, conds)
		plan, err := pl.Plan(q, db)
		if err != nil {
			return nil, err
		}
		chosen := plan.Jobs[0].Reducers
		tChosen, err := timeFor(chosen)
		if err != nil {
			return nil, err
		}
		tMax, err := timeFor(kp)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtGB(gb), fmt.Sprintf("%d", chosen), fmtSec(tChosen), fmtSec(tMax))
	}
	return t, nil
}

// AblationScheduling compares the kP-aware malleable schedule against
// oblivious execution (every job at full width, serialized) for a
// multi-job plan under scarce units.
func (s *Suite) AblationScheduling() (*Table, error) {
	t := &Table{
		Title:   "Ablation: kP-aware scheduling vs oblivious serial execution",
		Columns: []string{"kP", "scheduled(s)", "serial-max-width(s)"},
	}
	kps := []int{16, 32, 64, 96}
	if s.Quick {
		kps = []int{32}
	}
	q, err := workloads.MobileQuery(1)
	if err != nil {
		return nil, err
	}
	mcfg := workloads.DefaultMobileConfig()
	mcfg.Tuples = 200
	mcfg.NominalGB = 100
	db, err := workloads.MobileDB(mcfg, 300)
	if err != nil {
		return nil, err
	}
	for _, kp := range kps {
		cfg := s.Cfg
		if cfg.MapSlots > kp {
			cfg.MapSlots = kp
		}
		cfg.ReduceSlots = kp
		pl := core.NewPlanner(cfg, kp)
		pl.Opts.MaxCells = 1 << 14
		plan, err := pl.Plan(q, db)
		if err != nil {
			return nil, err
		}
		// Oblivious: every job serialized at the full width — both
		// sides compared on the model's estimates.
		serial := 0.0
		for _, pj := range plan.Jobs {
			serial += pj.Profile[len(pj.Profile)-1]
		}
		serial += plan.MergeEstimate
		t.AddRow(fmt.Sprintf("%d", kp), fmtSec(plan.EstimatedMakespan), fmtSec(serial))
	}
	return t, nil
}
