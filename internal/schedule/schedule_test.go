package schedule

import (
	"math"
	"math/rand"
	"testing"
)

// lowerBound returns max(critical-path, total-work/kP): no schedule
// can beat it, which makes it the oracle Schedule's makespans are
// checked against. Work uses each task's most efficient point (minimum
// units·time product); the critical path uses each task's fastest time.
func lowerBound(tasks []Task, kP int) float64 {
	byID := make(map[string]*Task, len(tasks))
	for i := range tasks {
		byID[tasks[i].ID] = &tasks[i]
	}
	// Critical path on fastest times.
	memo := make(map[string]float64, len(tasks))
	var cp func(id string) float64
	cp = func(id string) float64 {
		if v, ok := memo[id]; ok {
			return v
		}
		t := byID[id]
		best, _ := t.bestTime(kP)
		longest := 0.0
		for _, d := range t.DependsOn {
			if l := cp(d); l > longest {
				longest = l
			}
		}
		memo[id] = longest + best
		return memo[id]
	}
	var maxCP float64
	var work float64
	for _, t := range tasks {
		if v := cp(t.ID); v > maxCP {
			maxCP = v
		}
		// Most efficient area point.
		bestArea := math.Inf(1)
		for k := 1; k <= len(t.Profile) && k <= kP; k++ {
			if a := t.Profile[k-1] * float64(k); a < bestArea {
				bestArea = a
			}
		}
		work += bestArea
	}
	return math.Max(maxCP, work/float64(kP))
}

// constProfile returns a profile with the same time for every allotment.
func constProfile(t float64, maxK int) []float64 {
	p := make([]float64, maxK)
	for i := range p {
		p[i] = t
	}
	return p
}

// speedupProfile models perfect speedup: t/k.
func speedupProfile(t float64, maxK int) []float64 {
	p := make([]float64, maxK)
	for i := range p {
		p[i] = t / float64(i+1)
	}
	return p
}

func TestScheduleSingleTask(t *testing.T) {
	plan, err := Schedule([]Task{{ID: "a", Profile: speedupProfile(10, 8)}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Makespan-10.0/8) > 1e-9 {
		t.Errorf("makespan = %v, want 1.25", plan.Makespan)
	}
	p, ok := plan.Placement("a")
	if !ok || p.Units != 8 {
		t.Errorf("placement = %+v", p)
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := Schedule(nil, 4); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := Schedule([]Task{{ID: "a", Profile: []float64{1}}}, 0); err == nil {
		t.Error("kP=0 accepted")
	}
	if _, err := Schedule([]Task{{ID: "", Profile: []float64{1}}}, 4); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := Schedule([]Task{{ID: "a"}}, 4); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := Schedule([]Task{{ID: "a", Profile: []float64{-1}}}, 4); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := Schedule([]Task{
		{ID: "a", Profile: []float64{1}},
		{ID: "a", Profile: []float64{1}},
	}, 4); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := Schedule([]Task{
		{ID: "a", Profile: []float64{1}, DependsOn: []string{"zz"}},
	}, 4); err == nil {
		t.Error("unknown dependency accepted")
	}
	if _, err := Schedule([]Task{
		{ID: "a", Profile: []float64{1}, DependsOn: []string{"b"}},
		{ID: "b", Profile: []float64{1}, DependsOn: []string{"a"}},
	}, 4); err == nil {
		t.Error("cycle accepted")
	}
}

// The paper's §4.2 example: three jobs finishing in 5, 7, 9 time units
// with 4, 4, 8 reducers. With ≥16 units they run fully parallel; the
// merge chain adds 2 more for a total of 11.
func TestFig4Example(t *testing.T) {
	prof := func(units int, time float64) []float64 {
		// Time is `time` at the stated units; worse below, no better above.
		p := make([]float64, 16)
		for k := 1; k <= 16; k++ {
			if k >= units {
				p[k-1] = time
			} else {
				p[k-1] = time * float64(units) / float64(k)
			}
		}
		return p
	}
	tasks := []Task{
		{ID: "ei", Profile: prof(4, 5)},
		{ID: "ej", Profile: prof(4, 7)},
		{ID: "ek", Profile: prof(8, 9)},
		{ID: "merge1", Profile: constProfile(1, 16), DependsOn: []string{"ei", "ej"}},
		{ID: "merge2", Profile: constProfile(1, 16), DependsOn: []string{"merge1", "ek"}},
	}
	plan, err := Schedule(tasks, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 9 (parallel jobs) + 1 + 1 = 11 as in the paper's walkthrough.
	if plan.Makespan > 11+1e-9 {
		t.Errorf("makespan = %v, want <= 11", plan.Makespan)
	}
	// Dependencies respected.
	m1, _ := plan.Placement("merge1")
	ei, _ := plan.Placement("ei")
	ej, _ := plan.Placement("ej")
	if m1.Start < ei.Finish-1e-9 || m1.Start < ej.Finish-1e-9 {
		t.Error("merge1 started before inputs finished")
	}
	m2, _ := plan.Placement("merge2")
	ek, _ := plan.Placement("ek")
	if m2.Start < m1.Finish-1e-9 || m2.Start < ek.Finish-1e-9 {
		t.Error("merge2 started before inputs finished")
	}
}

// With only 8 units, the three Fig. 4 jobs cannot all run in parallel
// at their preferred allotments: the scheduler must serialize or give
// smaller allotments, producing a longer makespan than with 16 units.
func TestResourceContention(t *testing.T) {
	prof := func(units int, time float64) []float64 {
		p := make([]float64, 16)
		for k := 1; k <= 16; k++ {
			if k >= units {
				p[k-1] = time
			} else {
				p[k-1] = time * float64(units) / float64(k)
			}
		}
		return p
	}
	tasks := []Task{
		{ID: "ei", Profile: prof(4, 5)},
		{ID: "ej", Profile: prof(4, 7)},
		{ID: "ek", Profile: prof(8, 9)},
	}
	wide, err := Schedule(tasks, 16)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Schedule(tasks, 8)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Makespan < wide.Makespan {
		t.Errorf("narrow (%v) beat wide (%v)", narrow.Makespan, wide.Makespan)
	}
	if narrow.Makespan < lowerBound(tasks, 8)-1e-9 {
		t.Error("makespan below lower bound")
	}
}

func TestConcurrentUnitsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		kP := 2 + rng.Intn(14)
		n := 2 + rng.Intn(6)
		var tasks []Task
		for i := 0; i < n; i++ {
			base := 1 + rng.Float64()*20
			tasks = append(tasks, Task{
				ID:      string(rune('a' + i)),
				Profile: speedupProfile(base, 16),
			})
		}
		// Random chain dependency sometimes.
		if n >= 3 && rng.Intn(2) == 0 {
			tasks[2].DependsOn = []string{tasks[0].ID}
		}
		plan, err := Schedule(tasks, kP)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep events and check concurrent unit usage.
		for _, p := range plan.Placements {
			mid := (p.Start + p.Finish) / 2
			used := 0
			for _, q := range plan.Placements {
				if q.Start <= mid && mid < q.Finish {
					used += q.Units
				}
			}
			if used > kP {
				t.Fatalf("trial %d: %d units used at t=%v with kP=%d", trial, used, mid, kP)
			}
		}
		if plan.Makespan < lowerBound(tasks, kP)-1e-9 {
			t.Fatalf("trial %d: makespan %v below lower bound %v", trial, plan.Makespan, lowerBound(tasks, kP))
		}
	}
}

// Brute-force optimal for two independent constant-profile tasks on
// kP=1: they must serialize.
func TestSerializeOnOneUnit(t *testing.T) {
	tasks := []Task{
		{ID: "a", Profile: []float64{4}},
		{ID: "b", Profile: []float64{6}},
	}
	plan, err := Schedule(tasks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Makespan-10) > 1e-9 {
		t.Errorf("makespan = %v, want 10", plan.Makespan)
	}
}

// Malleable trade-off: two tasks with perfect speedup on kP=8. Optimal
// is to split 4/4 (both finish at t/4); serializing with 8 each gives
// the same total here, but with unequal sizes splitting proportionally
// wins. The scheduler should land within 2× of the lower bound.
func TestNearOptimalMalleable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		kP := 4 + rng.Intn(12)
		n := 2 + rng.Intn(5)
		var tasks []Task
		for i := 0; i < n; i++ {
			tasks = append(tasks, Task{
				ID:      string(rune('a' + i)),
				Profile: speedupProfile(5+rng.Float64()*50, kP),
			})
		}
		plan, err := Schedule(tasks, kP)
		if err != nil {
			t.Fatal(err)
		}
		lb := lowerBound(tasks, kP)
		if plan.Makespan > 2*lb+1e-9 {
			t.Errorf("trial %d: makespan %v > 2x lower bound %v", trial, plan.Makespan, lb)
		}
	}
}

func TestLowerBound(t *testing.T) {
	tasks := []Task{
		{ID: "a", Profile: speedupProfile(8, 4)},
		{ID: "b", Profile: speedupProfile(8, 4), DependsOn: []string{"a"}},
	}
	lb := lowerBound(tasks, 4)
	// Critical path: 2 + 2 = 4; work bound: (8+8)/4 = 4.
	if math.Abs(lb-4) > 1e-9 {
		t.Errorf("lower bound = %v, want 4", lb)
	}
}

func TestProfileShorterThanKP(t *testing.T) {
	// Task profile defined only up to 2 units; kP=8 must not panic and
	// must clamp the allotment.
	tasks := []Task{{ID: "a", Profile: []float64{10, 6}}}
	plan, err := Schedule(tasks, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := plan.Placement("a")
	if p.Units > 2 {
		t.Errorf("allotment %d exceeds profile length", p.Units)
	}
	if math.Abs(plan.Makespan-6) > 1e-9 {
		t.Errorf("makespan = %v, want 6", plan.Makespan)
	}
}

// Exhaustive comparison on tiny instances: for two constant-profile
// tasks on kP units, the optimum is easy to state — tasks run in
// parallel when both fit, else serialized. Schedule must match it.
func TestTwoTaskOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		kP := 1 + rng.Intn(8)
		// Each task has a fixed width requirement encoded by a profile
		// that is infeasibly slow below its width.
		w1, w2 := 1+rng.Intn(kP), 1+rng.Intn(kP)
		t1 := 1 + rng.Float64()*9
		t2 := 1 + rng.Float64()*9
		prof := func(w int, tm float64) []float64 {
			p := make([]float64, kP)
			for k := 1; k <= kP; k++ {
				if k >= w {
					p[k-1] = tm
				} else {
					p[k-1] = tm * 1000
				}
			}
			return p
		}
		plan, err := Schedule([]Task{
			{ID: "a", Profile: prof(w1, t1)},
			{ID: "b", Profile: prof(w2, t2)},
		}, kP)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		if w1+w2 <= kP {
			want = math.Max(t1, t2)
		} else {
			want = t1 + t2
		}
		if plan.Makespan > want+1e-9 {
			t.Errorf("trial %d: makespan %v, optimal %v (w=%d,%d kP=%d)",
				trial, plan.Makespan, want, w1, w2, kP)
		}
	}
}

// TestExecutableStructure asserts the plan exposes what an executor
// needs: dispatch ordering, wave grouping, and dependency lists.
func TestExecutableStructure(t *testing.T) {
	flat := []float64{10, 5, 4, 4}
	plan, err := Schedule([]Task{
		{ID: "a", Profile: flat},
		{ID: "b", Profile: flat},
		{ID: "merge", Profile: flat, DependsOn: []string{"a", "b"}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	order := plan.ExecutionOrder()
	if len(order) != 3 {
		t.Fatalf("execution order has %d placements, want 3", len(order))
	}
	pos := map[string]int{}
	for i, p := range order {
		pos[p.TaskID] = i
		if i > 0 && order[i-1].Start > p.Start {
			t.Errorf("execution order not sorted by start: %v before %v", order[i-1], p)
		}
	}
	if pos["merge"] != 2 {
		t.Errorf("dependent task dispatched at position %d, want last", pos["merge"])
	}
	mp, _ := plan.Placement("merge")
	if len(mp.DependsOn) != 2 {
		t.Errorf("merge placement lost dependencies: %v", mp.DependsOn)
	}
	lastWave := 0
	for _, p := range order {
		lastWave = max(lastWave, p.Wave)
		if p.Wave == 0 && p.Start != 0 {
			t.Errorf("wave 0 task %s starts at %v, want 0", p.TaskID, p.Start)
		}
	}
	if lastWave < 1 {
		t.Fatalf("expected >= 2 waves, got %d: %v", lastWave+1, order)
	}
	if mp.Wave == 0 {
		t.Error("merge task assigned wave 0")
	}
}
