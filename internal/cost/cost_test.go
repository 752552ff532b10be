package cost

import (
	"context"
	"math"
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
)

func rates() mr.Rates { return mr.DefaultConfig().Rates() }

func profile(gb float64, alpha float64) JobProfile {
	return JobProfile{
		InputBytes: int64(gb * 1e9),
		MapTasks:   int(math.Max(1, gb*1e9/64e6)),
		MapSlots:   104,
		Alpha:      alpha,
		Beta:       0.1,
		Sigma:      0,
	}
}

func TestEstimateComponentsPositive(t *testing.T) {
	r := rates()
	e, err := Evaluate(r, profile(10, 0.5), 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.TM <= 0 || e.JM <= 0 || e.TCP <= 0 || e.JCP <= 0 || e.JR <= 0 || e.T <= 0 {
		t.Errorf("non-positive components: %+v", e)
	}
	if e.JM < e.TM {
		t.Error("JM < tM")
	}
	// Eq. 6: T must equal one of the two overlap forms.
	want1 := e.JM + e.TCP + e.JR
	want2 := e.TM + e.JCP + e.JR
	if math.Abs(e.T-want1) > 1e-9 && math.Abs(e.T-want2) > 1e-9 {
		t.Errorf("T = %v matches neither overlap form (%v, %v)", e.T, want1, want2)
	}
}

func TestEstimateValidation(t *testing.T) {
	r := rates()
	if _, err := Evaluate(r, profile(1, 0.5), 0); err == nil {
		t.Error("0 reducers accepted")
	}
	bad := profile(1, 0.5)
	bad.MapTasks = 0
	if _, err := Evaluate(r, bad, 4); err == nil {
		t.Error("0 map tasks accepted")
	}
	bad = profile(1, 0.5)
	bad.Alpha = -1
	if _, err := Evaluate(r, bad, 4); err == nil {
		t.Error("negative alpha accepted")
	}
	bad = profile(1, 0.5)
	bad.MapSlots = 0
	if _, err := Evaluate(r, bad, 4); err == nil {
		t.Error("0 map slots accepted")
	}
	bad = profile(1, 0.5)
	bad.InputBytes = -5
	if _, err := Evaluate(r, bad, 4); err == nil {
		t.Error("negative input accepted")
	}
}

// The paper's Fig. 6 observation: for large inputs, adding reducers
// helps a lot initially, then gains shrink (and eventually reverse as
// connection overhead dominates).
func TestReducerSweepShape(t *testing.T) {
	r := rates()
	prof := profile(100, 1.0)
	t2, _ := Evaluate(r, prof, 2)
	t16, _ := Evaluate(r, prof, 16)
	if t16.T >= t2.T {
		t.Errorf("16 reducers (%v) not faster than 2 (%v) on 100GB", t16.T, t2.T)
	}
	// Gains flatten: marginal improvement 48→64 much smaller than 2→16.
	t48, _ := Evaluate(r, prof, 48)
	t64, _ := Evaluate(r, prof, 64)
	gainEarly := t2.T - t16.T
	gainLate := t48.T - t64.T
	if gainLate > gainEarly/4 {
		t.Errorf("late gain %v not much smaller than early gain %v", gainLate, gainEarly)
	}
}

// J_R strictly decreases with reducer count (workload splits), while
// the q·n connection overhead increases — producing the interior
// optimum of Fig. 7a.
func TestJRMonotoneAndInteriorOptimum(t *testing.T) {
	r := rates()
	prof := profile(10, 1.0)
	prev := math.Inf(1)
	for n := 1; n <= 64; n *= 2 {
		e, err := Evaluate(r, prof, n)
		if err != nil {
			t.Fatal(err)
		}
		if e.JR >= prev {
			t.Errorf("JR not decreasing at n=%d: %v >= %v", n, e.JR, prev)
		}
		prev = e.JR
	}
	best, err := BestReducers(r, prof, 512)
	if err != nil {
		t.Fatal(err)
	}
	if best.N <= 1 || best.N >= 512 {
		t.Errorf("optimum %d not interior", best.N)
	}
}

// Fig. 7a: larger map output volume pushes the optimal reducer count up.
func TestBestReducersGrowsWithVolume(t *testing.T) {
	r := rates()
	small, err := BestReducers(r, profile(1, 1.0), 256)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BestReducers(r, profile(200, 1.0), 256)
	if err != nil {
		t.Fatal(err)
	}
	if big.N <= small.N {
		t.Errorf("best kR for 200GB (%d) not above 1GB (%d)", big.N, small.N)
	}
	if _, err := BestReducers(r, profile(1, 1), 0); err == nil {
		t.Error("maxN=0 accepted")
	}
}

// p is the write cost inflated by the spill factor; q grows with the
// reducer count and clamps to q(1) below one reducer.
func TestPQBehaviour(t *testing.T) {
	r := rates()
	if r.P(r.SortBuf/2) != 1/r.WriteBps {
		t.Error("p below sort buffer should equal write cost")
	}
	for _, b := range []int64{r.SortBuf / 2, r.SortBuf * 3, r.SortBuf * 100} {
		if got, want := r.P(b), r.SpillFactor(b)/r.WriteBps; math.Abs(got-want) > 1e-15*want {
			t.Errorf("P(%d) = %v, want SpillFactor/WriteBps = %v", b, got, want)
		}
	}
	if r.P(r.SortBuf*100) <= r.P(r.SortBuf*2) {
		t.Error("p not growing with spill volume")
	}
	if r.Q(64) <= r.Q(4) {
		t.Error("q not growing with reducer count")
	}
	if r.Q(0) != r.Q(1) || r.Q(-3) != r.Q(1) {
		t.Error("q should clamp to q(1) below one reducer")
	}
}

func TestModelTracksSimulator(t *testing.T) {
	// Run a real self-join-shaped job in the simulator and compare the
	// analytic estimate against the simulated makespan: they should be
	// within 2× of each other (the closed form ignores wave
	// quantisation and exact skew).
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 64
	cfg.MapSlots = 8
	cfg.ReduceSlots = 8
	in := relation.New("t", relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt}))
	for i := 0; i < 2000; i++ {
		in.MustAppend(relation.Tuple{relation.Int(int64(i % 64))})
	}
	in.VolumeMultiplier = 50000 // model ~ a GB-scale input
	r := cfg.Rates()
	job := &mr.Job{
		Name:   "selfjoin-sample",
		Inputs: []mr.Input{{Rel: in, Map: func(t relation.Tuple, emit mr.Emitter) { emit(uint64(t[0].Int64()), 0) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ctx.AddWork(int64(len(groups[0])) * int64(len(groups[0])))
			ctx.Emit(relation.Tuple{groups[0][0][0]})
		},
		NumReducers:  8,
		OutputName:   "out",
		OutputSchema: in.Schema,
	}
	res, err := mr.Run(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	prof := ProfileFromMetrics(res.Metrics, cfg)
	est, err := Evaluate(r, prof, 8)
	if err != nil {
		t.Fatal(err)
	}
	sim := res.Metrics.Sim.Total
	if est.T < sim/2 || est.T > sim*2 {
		t.Errorf("estimate %v vs simulated %v: off by more than 2x", est.T, sim)
	}
}

func TestProfileFromMetrics(t *testing.T) {
	m := mr.Metrics{
		MapTasks:          4,
		InputBytes:        1000,
		ShuffleBytes:      500,
		OutputBytes:       50,
		ReducerInputBytes: []int64{100, 150, 250},
	}
	cfg := mr.DefaultConfig()
	jp := ProfileFromMetrics(m, cfg)
	if jp.Alpha != 0.5 {
		t.Errorf("alpha = %v", jp.Alpha)
	}
	if jp.Beta != 0.1 {
		t.Errorf("beta = %v", jp.Beta)
	}
	if jp.Sigma <= 0 {
		t.Errorf("sigma = %v", jp.Sigma)
	}
	if jp.MapTasks != 4 || jp.MapSlots != cfg.MapSlots {
		t.Error("task counts wrong")
	}
	empty := ProfileFromMetrics(mr.Metrics{}, cfg)
	if empty.Alpha != 0 || empty.Beta != 0 || empty.MapTasks != 1 {
		t.Errorf("zero metrics profile: %+v", empty)
	}
}

func TestMergeCostSmall(t *testing.T) {
	r := rates()
	mc := MergeCost(r, 1e9, 1e9)
	full, _ := Evaluate(r, profile(2, 1.0), 16)
	if mc >= full.T {
		t.Errorf("merge cost %v not small vs full job %v", mc, full.T)
	}
	if mc <= 0 {
		t.Error("merge cost not positive")
	}
}

func TestStddev(t *testing.T) {
	if s := stddevInt64(nil); s != 0 {
		t.Errorf("stddev(nil) = %v", s)
	}
	if s := stddevInt64([]int64{5, 5, 5}); s != 0 {
		t.Errorf("stddev(const) = %v", s)
	}
	if s := stddevInt64([]int64{0, 10}); math.Abs(s-5) > 1e-9 {
		t.Errorf("stddev(0,10) = %v, want 5", s)
	}
}
