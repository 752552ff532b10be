package mr

import (
	"context"
	"hash/fnv"
	"testing"

	"repro/internal/relation"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TuplesPerMapTask = 16
	cfg.MapSlots = 4
	cfg.ReduceSlots = 4
	return cfg
}

// tempSpill returns a temp-file spill store, closed when the test ends.
func tempSpill(t testing.TB) *TempSpillStore {
	t.Helper()
	store, err := NewTempSpillStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func intsRelation(name string, vals ...int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt}))
	for _, v := range vals {
		r.MustAppend(relation.Tuple{relation.Int(v)})
	}
	return r
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// A word-count style job: group ints by value, count occurrences.
func countJob(in *relation.Relation, reducers int) *Job {
	outSchema := relation.MustSchema(
		relation.Column{Name: "v", Kind: relation.KindInt},
		relation.Column{Name: "n", Kind: relation.KindInt},
	)
	return &Job{
		Name:   "count",
		Inputs: []Input{{Rel: in, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			ctx.EmitConcat(relation.Tuple{groups[0][0][0], relation.Int(int64(len(groups[0])))})
		},
		NumReducers:  reducers,
		OutputName:   "counts",
		OutputSchema: outSchema,
	}
}

func TestRunCountJob(t *testing.T) {
	in := intsRelation("in", 1, 2, 2, 3, 3, 3, 7, 7, 7, 7)
	res, err := Run(context.Background(), smallConfig(), countJob(in, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{1: 1, 2: 2, 3: 3, 7: 4}
	if res.Output.Cardinality() != len(want) {
		t.Fatalf("output rows %d, want %d", res.Output.Cardinality(), len(want))
	}
	for _, row := range res.Output.Tuples {
		if want[row[0].Int64()] != row[1].Int64() {
			t.Errorf("count of %d = %d, want %d", row[0].Int64(), row[1].Int64(), want[row[0].Int64()])
		}
	}
	m := res.Metrics
	if m.PairsEmitted != 10 {
		t.Errorf("pairs emitted %d", m.PairsEmitted)
	}
	if m.ReduceTasks != 3 || len(m.ReducerInputBytes) != 3 {
		t.Errorf("reduce task accounting wrong: %+v", m)
	}
	if m.InputBytes <= 0 || m.ShuffleBytes <= 0 || m.OutputBytes <= 0 {
		t.Errorf("byte accounting not positive: %+v", m)
	}
	if m.Sim.Total <= 0 || m.Sim.Total < m.Sim.ShuffleDone || m.Sim.ShuffleDone < m.Sim.MapDone {
		t.Errorf("sim time ordering violated: %+v", m.Sim)
	}
}

func TestRunDeterministic(t *testing.T) {
	in := intsRelation("in")
	for i := int64(0); i < 500; i++ {
		in.MustAppend(relation.Tuple{relation.Int(i % 37)})
	}
	var first *Result
	for trial := 0; trial < 3; trial++ {
		res, err := Run(context.Background(), smallConfig(), countJob(in, 5))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Output.Cardinality() != first.Output.Cardinality() {
			t.Fatal("nondeterministic cardinality")
		}
		for i := range res.Output.Tuples {
			for j := range res.Output.Tuples[i] {
				if relation.Compare(res.Output.Tuples[i][j], first.Output.Tuples[i][j]) != 0 {
					t.Fatalf("nondeterministic output at row %d", i)
				}
			}
		}
		if res.Metrics.Sim != first.Metrics.Sim {
			t.Fatalf("nondeterministic sim time: %+v vs %+v", res.Metrics.Sim, first.Metrics.Sim)
		}
	}
}

// TestMergeOrderingContract pins the shuffle ordering the sort-free
// merge must reproduce: reduce keys arrive in ascending order, and
// values within a key keep task order (and, within a task, emission
// order). With tasks split from one relation in block order, that
// means values of a key appear in global input order.
func TestMergeOrderingContract(t *testing.T) {
	in := relation.New("in", relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "pos", Kind: relation.KindInt},
	))
	// 64 tuples over 7 keys, interleaved so every map task (4 tuples
	// each) holds several keys and every key spans several tasks.
	for i := int64(0); i < 64; i++ {
		in.MustAppend(relation.Tuple{relation.Int(i % 7), relation.Int(i)})
	}
	cfg := smallConfig()
	cfg.TuplesPerMapTask = 4
	type group struct {
		key uint64
		pos []int64
	}
	var groups []group
	job := &Job{
		Name:   "ordering",
		Inputs: []Input{{Rel: in, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }}},
		Reduce: func(key uint64, byTag [][]relation.Tuple, ctx *ReduceContext) {
			values := byTag[0]
			g := group{key: key}
			for _, v := range values {
				g.pos = append(g.pos, v[1].Int64())
			}
			groups = append(groups, g)
			ctx.EmitConcat(relation.Tuple{values[0][0], relation.Int(int64(len(values)))})
		},
		NumReducers: 1, // single reducer: observe the full merged run
		OutputName:  "out",
		OutputSchema: relation.MustSchema(
			relation.Column{Name: "k", Kind: relation.KindInt},
			relation.Column{Name: "n", Kind: relation.KindInt},
		),
	}
	cfg.MaxParallelWorkers = 1
	if _, err := Run(context.Background(), cfg, job); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 7 {
		t.Fatalf("got %d key groups, want 7", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].key <= groups[i-1].key {
			t.Errorf("keys not ascending: %d after %d", groups[i].key, groups[i-1].key)
		}
	}
	for _, g := range groups {
		for i := 1; i < len(g.pos); i++ {
			if g.pos[i] <= g.pos[i-1] {
				t.Errorf("key %d: values out of input order: %v", g.key, g.pos)
				break
			}
		}
		if int64(len(g.pos)) != 64/7+b2i(g.key < 64%7) {
			t.Errorf("key %d: %d values", g.key, len(g.pos))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestRunEquiJoin(t *testing.T) {
	left := intsRelation("L", 1, 2, 3, 4, 5)
	right := intsRelation("R", 3, 4, 5, 6, 3)
	outSchema := relation.MustSchema(
		relation.Column{Name: "l", Kind: relation.KindInt},
		relation.Column{Name: "r", Kind: relation.KindInt},
	)
	job := &Job{
		Name: "equijoin",
		Inputs: []Input{
			{Rel: left, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }},
			{Rel: right, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			ls, rs := groups[0], groups[1]
			ctx.AddWork(int64(len(ls) * len(rs)))
			for _, l := range ls {
				for _, r := range rs {
					if l[0].Int64() == r[0].Int64() {
						ctx.EmitConcat(relation.Tuple{l[0], r[0]})
					}
				}
			}
		},
		NumReducers:  4,
		OutputName:   "joined",
		OutputSchema: outSchema,
	}
	res, err := Run(context.Background(), smallConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: 3 appears twice on the right → 3×2? L has one 3. Pairs: (3,3)x2, (4,4), (5,5) = 4 rows.
	if res.Output.Cardinality() != 4 {
		t.Fatalf("join rows = %d, want 4", res.Output.Cardinality())
	}
	if res.Metrics.CombinationsChecked < 4 {
		t.Errorf("combinations checked = %d", res.Metrics.CombinationsChecked)
	}
}

func TestRunValidation(t *testing.T) {
	in := intsRelation("in", 1)
	good := countJob(in, 2)
	bad := *good
	bad.Name = ""
	if _, err := Run(context.Background(), smallConfig(), &bad); err == nil {
		t.Error("empty name accepted")
	}
	bad = *good
	bad.Inputs = nil
	if _, err := Run(context.Background(), smallConfig(), &bad); err == nil {
		t.Error("no inputs accepted")
	}
	bad = *good
	bad.NumReducers = 0
	if _, err := Run(context.Background(), smallConfig(), &bad); err == nil {
		t.Error("0 reducers accepted")
	}
	bad = *good
	bad.Reduce = nil
	if _, err := Run(context.Background(), smallConfig(), &bad); err == nil {
		t.Error("nil reduce accepted")
	}
	bad = *good
	bad.OutputSchema = nil
	if _, err := Run(context.Background(), smallConfig(), &bad); err == nil {
		t.Error("nil schema accepted")
	}
	cfg := smallConfig()
	cfg.MapSlots = 0
	if _, err := Run(context.Background(), cfg, good); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRunEmptyInput(t *testing.T) {
	res, err := Run(context.Background(), smallConfig(), countJob(intsRelation("empty"), 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Cardinality() != 0 {
		t.Error("nonempty output from empty input")
	}
}

// routeTo sends every pair to one fixed reducer ordinal.
type routeTo int

func (r routeTo) Route(dst []int, _ uint64, _ uint8, _ relation.Tuple, _ int) []int {
	return append(dst, int(r))
}

func TestBadPartitionRejected(t *testing.T) {
	in := intsRelation("in", 1, 2, 3)
	job := countJob(in, 2)
	job.Partitioner = routeTo(99)
	if _, err := Run(context.Background(), smallConfig(), job); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

func TestArityMismatchRejected(t *testing.T) {
	in := intsRelation("in", 1)
	job := countJob(in, 1)
	job.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
		ctx.EmitConcat(relation.Tuple{relation.Int(1)}) // schema wants 2 columns
	}
	if _, err := Run(context.Background(), smallConfig(), job); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestVolumeMultiplierScalesBytes(t *testing.T) {
	in := intsRelation("in", 1, 2, 3, 4)
	base, err := Run(context.Background(), smallConfig(), countJob(in, 2))
	if err != nil {
		t.Fatal(err)
	}
	in2 := in.Clone()
	in2.VolumeMultiplier = 10
	scaled, err := Run(context.Background(), smallConfig(), countJob(in2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Metrics.InputBytes != base.Metrics.InputBytes*10 {
		t.Errorf("input bytes %d, want %d", scaled.Metrics.InputBytes, base.Metrics.InputBytes*10)
	}
	if scaled.Metrics.ShuffleBytes != base.Metrics.ShuffleBytes*10 {
		t.Errorf("shuffle bytes %d, want %d", scaled.Metrics.ShuffleBytes, base.Metrics.ShuffleBytes*10)
	}
	if scaled.Output.VolumeMultiplier != 10 {
		t.Errorf("output multiplier = %v", scaled.Output.VolumeMultiplier)
	}
	if scaled.Metrics.Sim.Total <= base.Metrics.Sim.Total {
		t.Error("larger modeled volume did not increase simulated time")
	}
}

func TestFaultInjectionMapRetry(t *testing.T) {
	in := intsRelation("in")
	for i := int64(0); i < 100; i++ {
		in.MustAppend(relation.Tuple{relation.Int(i)})
	}
	job := countJob(in, 2)
	clean, err := Run(context.Background(), smallConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Faults = &FaultPlan{Faults: []Fault{
		{Kind: FaultKillMap, Task: 0, Attempt: 0},
		{Kind: FaultKillMap, Task: 0, Attempt: 1},
		{Kind: FaultKillReduce, Task: 1, Attempt: 0},
	}}
	faulty, err := Run(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	// Same result despite failures (re-execution fault tolerance).
	if faulty.Output.Cardinality() != clean.Output.Cardinality() {
		t.Error("failure changed output")
	}
	if faulty.Metrics.MapFailures != 2 || faulty.Metrics.ReduceFailures != 1 {
		t.Errorf("failure counters: %+v", faulty.Metrics)
	}
	if faulty.Metrics.Sim.Total <= clean.Metrics.Sim.Total {
		t.Error("failures did not extend simulated time")
	}
}

func TestSimulatedWavesRespectSlots(t *testing.T) {
	// 8 equal map tasks on 2 slots must take ≥ 4× one task's time.
	mapDur := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	copyDur := make([]float64, 8)
	sim := simulate(2, 2, mapDur, copyDur, make([]int, 8), []float64{1}, []int{0})
	if sim.MapDone != 20 {
		t.Errorf("map waves = %v, want 20", sim.MapDone)
	}
	// 4 reduce tasks of 10s on 2 slots after shuffle at t=20 → 20+20.
	sim = simulate(2, 2, mapDur, copyDur, make([]int, 8),
		[]float64{10, 10, 10, 10}, make([]int, 4))
	if sim.Total != 40 {
		t.Errorf("total = %v, want 40", sim.Total)
	}
}

func TestSimulateCopyOverlap(t *testing.T) {
	// Copies overlap with later map waves: 2 tasks, 1 slot, copy 3s.
	// Task A: 0-5, copy done 8. Task B: 5-10, copy done 13.
	sim := simulate(1, 1, []float64{5, 5}, []float64{3, 3}, []int{0, 0},
		[]float64{2}, []int{0})
	if sim.MapDone != 10 {
		t.Errorf("MapDone = %v", sim.MapDone)
	}
	if sim.ShuffleDone != 13 {
		t.Errorf("ShuffleDone = %v", sim.ShuffleDone)
	}
	if sim.Total != 15 {
		t.Errorf("Total = %v", sim.Total)
	}
}

func TestStragglerReducerDominates(t *testing.T) {
	in := intsRelation("skew")
	for i := 0; i < 1000; i++ {
		in.MustAppend(relation.Tuple{relation.Int(7)}) // all same key
	}
	for i := 0; i < 10; i++ {
		in.MustAppend(relation.Tuple{relation.Int(int64(100 + i))})
	}
	res, err := Run(context.Background(), smallConfig(), countJob(in, 4))
	if err != nil {
		t.Fatal(err)
	}
	var max, sum int64
	for _, b := range res.Metrics.ReducerInputBytes {
		if b > max {
			max = b
		}
		sum += b
	}
	if max != res.Metrics.MaxReducerInput {
		t.Error("MaxReducerInput mismatch")
	}
	if float64(max) < 0.9*float64(sum) {
		t.Errorf("expected heavy skew, max %d of total %d", max, sum)
	}
}

// TestStdTimerMonotonicity checks that the standard price list's task
// times grow with the bytes they move and its spill factor with the
// spilled volume.
func TestStdTimerMonotonicity(t *testing.T) {
	r := PaperRates()
	if r.MapTaskTime(1e9, 1e8) <= r.MapTaskTime(1e8, 1e8) {
		t.Error("map time not increasing in input")
	}
	if r.MapTaskTime(1e8, 1e9) <= r.MapTaskTime(1e8, 1e8) {
		t.Error("map time not increasing in output")
	}
	if r.ReduceTime(1e9, 0) <= r.ReduceTime(1e8, 0) {
		t.Error("reduce time not increasing in input")
	}
	if r.ReduceTime(1e8, 1e9) <= r.ReduceTime(1e8, 0) {
		t.Error("reduce time not increasing in output")
	}
	if r.CopyTime(1e9, 4) <= r.CopyTime(1e8, 4) {
		t.Error("copy time not increasing in bytes")
	}
	// q·n term grows with reducer count for fixed bytes.
	if r.CopyTime(1e6, 64) <= r.CopyTime(1e6, 2) {
		t.Error("connection overhead not growing with reducers")
	}
	// The spill factor is 1 inside the sort buffer and inflates past it.
	if r.SpillFactor(r.SortBuf/2) != 1 || r.SpillFactor(r.SortBuf) != 1 {
		t.Error("spill factor within the sort buffer should be 1")
	}
	if r.SpillFactor(r.SortBuf*2) <= 1 || r.SpillFactor(r.SortBuf*100) <= r.SpillFactor(r.SortBuf*2) {
		t.Error("spill factor not growing past the sort buffer")
	}
}

// TestRates pins PaperRates to Table 1's "Set" column and the device
// speeds of §6.1, and checks that every call is a fresh value: a
// caller that edits its copy moves no one else's prices. The p and q
// laws are checked where the Eq. 1–6 model reads them, in
// internal/cost.
func TestRates(t *testing.T) {
	want := Rates{ReadBps: 74.26e6, WriteBps: 14.69e6, NetBps: 120e6,
		SortBuf: 512e6, SortFactor: 300, QBase: 0.0005, TaskOverhead: 1}
	r := PaperRates()
	if r != want {
		t.Fatalf("PaperRates() = %+v, want %+v", r, want)
	}
	r.SortFactor, r.WriteBps = 2, 1
	if got := PaperRates(); got != want {
		t.Errorf("editing one copy changed the next: %+v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.MapSlots = 0 },
		func(c *Config) { c.ReduceSlots = 0 },
		func(c *Config) { c.TuplesPerMapTask = 0 },
		func(c *Config) { c.TuplesPerMapTask = -7 },
		func(c *Config) { c.MaxParallelWorkers = -1 },
		func(c *Config) { c.SpillBudgetBytes = 1 << 10 }, // a budget with no store
	} {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	// The engine divides by TuplesPerMapTask and spills a budgeted
	// shuffle to Spill: a zero split size or a missing store must
	// surface as a config error from Run, not a runtime panic.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.TuplesPerMapTask = 0 },
		func(c *Config) { c.SpillBudgetBytes = 1 << 10 },
	} {
		c := DefaultConfig()
		mutate(&c)
		job := countJob(intsRelation("vreject", 1, 2, 3), 2)
		if _, err := Run(context.Background(), c, job); err == nil {
			t.Errorf("Run accepted invalid config: %+v", c)
		}
	}
}

func TestStringKeysViaHash(t *testing.T) {
	sa := relation.MustSchema(relation.Column{Name: "s", Kind: relation.KindString})
	in := relation.New("strs", sa)
	words := []string{"ape", "bee", "cat", "bee", "ape", "ape"}
	for _, w := range words {
		in.MustAppend(relation.Tuple{relation.Str(w)})
	}
	outSchema := relation.MustSchema(
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "n", Kind: relation.KindInt},
	)
	job := &Job{
		Name:   "strcount",
		Inputs: []Input{{Rel: in, Map: func(t relation.Tuple, emit Emitter) { emit(hashString(t[0].Str())) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			// Hash collisions are possible in principle: re-group by value.
			byVal := map[string]int64{}
			for _, v := range groups[0] {
				byVal[v[0].Str()]++
			}
			for s, n := range byVal {
				ctx.EmitConcat(relation.Tuple{relation.Str(s), relation.Int(n)})
			}
		},
		NumReducers:  2,
		OutputName:   "out",
		OutputSchema: outSchema,
	}
	res, err := Run(context.Background(), smallConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, row := range res.Output.Tuples {
		got[row[0].Str()] = row[1].Int64()
	}
	if got["ape"] != 3 || got["bee"] != 2 || got["cat"] != 1 {
		t.Errorf("counts = %v", got)
	}
}

// Map tasks split by MODELED block size: a small tuple count modeling
// tens of gigabytes must produce block-sized tasks, not one giant task.
func TestMapTasksFollowModeledBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TuplesPerMapTask = 1 << 20 // tuple granularity not binding
	in := intsRelation("big")
	for i := int64(0); i < 1000; i++ {
		in.MustAppend(relation.Tuple{relation.Int(i)})
	}
	in.VolumeMultiplier = 10e9 / float64(in.EncodedSize()) // model 10 GB
	res, err := Run(context.Background(), cfg, countJob(in, 4))
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10 GB / 64 MB) = 157 blocks, re-quantised to whole tuples
	// (1000 tuples / 7 per task = 143): accept the neighbourhood.
	if res.Metrics.MapTasks < 140 || res.Metrics.MapTasks > 160 {
		t.Errorf("map tasks = %d, want ~143-157", res.Metrics.MapTasks)
	}
	// Never more tasks than tuples.
	in2 := intsRelation("tiny", 1, 2, 3)
	in2.VolumeMultiplier = 1e12
	res2, err := Run(context.Background(), cfg, countJob(in2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.MapTasks > 3 {
		t.Errorf("tiny relation got %d tasks", res2.Metrics.MapTasks)
	}
}

// The output-volume cap bounds modeled output at OutputCapRatio × input
// and adjusts the output relation's multiplier coherently; an output
// the cap does not bind keeps its input's multiplier.
func TestOutputCapRatio(t *testing.T) {
	cfg := smallConfig()
	in := intsRelation("in")
	for i := int64(0); i < 64; i++ {
		in.MustAppend(relation.Tuple{relation.Int(7)}) // one hot key
	}
	in.VolumeMultiplier = 1e6
	// A job that explodes: emits n^2 output rows for the hot key.
	job := &Job{
		Name:   "explode",
		Inputs: []Input{{Rel: in, Map: func(t relation.Tuple, emit Emitter) { emit(7) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			for range groups[0] {
				for range groups[0] {
					ctx.EmitConcat(relation.Tuple{relation.Int(1)})
				}
			}
		},
		NumReducers:  2,
		OutputName:   "out",
		OutputSchema: relation.MustSchema(relation.Column{Name: "x", Kind: relation.KindInt}),
	}
	res, err := Run(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Cardinality() != 64*64 {
		t.Fatalf("output rows = %d", res.Output.Cardinality())
	}
	if res.Metrics.OutputBytes > OutputCapRatio*res.Metrics.InputBytes+1 {
		t.Errorf("output bytes %d exceed cap of %gx input %d",
			res.Metrics.OutputBytes, OutputCapRatio, res.Metrics.InputBytes)
	}
	if res.Output.VolumeMultiplier >= in.VolumeMultiplier {
		t.Errorf("capped output kept multiplier %g", res.Output.VolumeMultiplier)
	}
	// One output row per input row: the cap does not bind, and the
	// output is priced at the input's multiplier.
	job.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
		for range groups[0] {
			ctx.EmitConcat(relation.Tuple{relation.Int(1)})
		}
	}
	res2, err := Run(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Output.VolumeMultiplier != in.VolumeMultiplier {
		t.Errorf("uncapped output multiplier %g, want the input's %g",
			res2.Output.VolumeMultiplier, in.VolumeMultiplier)
	}
	if want := int64(float64(res2.Metrics.OutputRawBytes) * in.VolumeMultiplier); res2.Metrics.OutputBytes != want {
		t.Errorf("uncapped output bytes %d, want %d", res2.Metrics.OutputBytes, want)
	}
}

// Per-slot copy serialization: when copies are slower than maps, the
// shuffle completes at ~JM + waves·tCP (Eq. 6's J_CP branch), not
// JM + tCP.
func TestCopySerializationPerSlot(t *testing.T) {
	// 4 tasks, 2 slots, map 1s, copy 10s: slot A maps tasks 0 (0-1)
	// and 2 (1-2); its copies serialize 1-11 and 11-21. Without
	// serialization task 2's copy would end at 12.
	sim := simulate(2, 1, []float64{1, 1, 1, 1}, []float64{10, 10, 10, 10},
		make([]int, 4), []float64{1}, []int{0})
	if sim.MapDone != 2 {
		t.Errorf("MapDone = %v", sim.MapDone)
	}
	if sim.ShuffleDone != 21 {
		t.Errorf("ShuffleDone = %v, want 21 (serialized copies)", sim.ShuffleDone)
	}
}
