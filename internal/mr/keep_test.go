package mr

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

// TestResultCapLattice runs seeded random jobs as a query's result
// (Job.Result) at Keep 0, 1, 7 and −1, on one worker or four, with no
// faults or map and reduce kills plus stragglers under speculation, and
// requires each run to keep exactly the first Keep rows of the same job
// run as an ordinary job, while its row count, row-hash sum, output
// pricing and simulated clock are the ordinary run's whatever it keeps.
func TestResultCapLattice(t *testing.T) {
	quickSpeculation(t, time.Millisecond)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		job := latticeJob(rng)
		job.NumReducers = 2 + rng.Intn(8)
		plan, err := ParseFaultPlan(fmt.Sprintf("seed=%d,map-kills=1,reduce-kills=2,stragglers=2,delay=2ms", trial))
		if err != nil {
			t.Fatal(err)
		}
		for _, faults := range []*FaultPlan{nil, plan} {
			cfg := smallConfig()
			cfg.TuplesPerMapTask = 5
			cfg.Faults = faults
			ref := mustRun(t, cfg, job)
			all := ref.Output.Tuples
			if ref.Rows != len(all) || ref.RowHashSum != 0 {
				t.Fatalf("trial %d: an ordinary job reports %d rows, row-hash sum %#x, for %d rows",
					trial, ref.Rows, ref.RowHashSum, len(all))
			}
			if len(all) < 8 {
				t.Fatalf("trial %d: only %d rows, too few to cap", trial, len(all))
			}
			wantHash := relation.ContentHash(ref.Output)
			for _, workers := range []int{1, 4} {
				for _, keep := range []int{0, 1, 7, -1} {
					capped := *job
					capped.Result, capped.Keep = true, keep
					// held[red] is the most rows an attempt of reducer red held.
					var mu sync.Mutex
					held := make([]int, job.NumReducers)
					capped.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
						job.Reduce(key, groups, ctx)
						mu.Lock()
						held[ctx.red] = max(held[ctx.red], len(ctx.out))
						mu.Unlock()
					}
					cfg.MaxParallelWorkers = workers
					res := mustRun(t, cfg, &capped)
					cell := fmt.Sprintf("trial %d (%d reducers) faults=%v workers=%d keep=%d",
						trial, job.NumReducers, faults != nil, workers, keep)
					n := len(all)
					if keep >= 0 {
						n = min(n, keep)
					}
					// One worker commits reducers in order, so the gate
					// closes on the rest once the first ones keep Keep
					// rows: those before the last one kept from hold fewer
					// than Keep together, and it holds at most Keep.
					total := 0
					for _, h := range held {
						total += h
					}
					if workers == 1 && faults == nil && keep >= 0 && total > max(0, 2*keep-1) {
						t.Errorf("%s: reducers held %v rows, the gate never closed", cell, held)
					}
					if !sameRows(res.Output.Tuples, all[:n]) {
						t.Errorf("%s: kept %d rows, not the ordinary run's first %d", cell, len(res.Output.Tuples), n)
					}
					if res.Rows != len(all) {
						t.Errorf("%s: Rows = %d, the ordinary run emits %d", cell, res.Rows, len(all))
					}
					if got := relation.ContentHashOf(res.Output.Schema, res.Rows, res.RowHashSum); got != wantHash {
						t.Errorf("%s: hash %#016x from the reducers, ContentHash of the ordinary run %#016x", cell, got, wantHash)
					}
					m, w := res.Metrics, ref.Metrics
					if m.OutputBytes != w.OutputBytes || m.OutputRawBytes != w.OutputRawBytes ||
						!slices.Equal(m.ReducerOutputBytes, w.ReducerOutputBytes) || m.Sim != w.Sim {
						t.Errorf("%s: output %d B (raw %d), per reducer %v, clock %+v; ordinary run %d B (raw %d), %v, %+v",
							cell, m.OutputBytes, m.OutputRawBytes, m.ReducerOutputBytes, m.Sim,
							w.OutputBytes, w.OutputRawBytes, w.ReducerOutputBytes, w.Sim)
					}
					if res.Output.VolumeMultiplier != ref.Output.VolumeMultiplier {
						t.Errorf("%s: volume multiplier %v, ordinary run %v", cell, res.Output.VolumeMultiplier, ref.Output.VolumeMultiplier)
					}
				}
			}
		}
	}
}

// TestKeepGateClosesOnCommittedPrefix: the gate closes on a reducer only
// once every reducer before it has committed and those together keep
// Keep rows; a later reducer committing first closes nothing.
func TestKeepGateClosesOnCommittedPrefix(t *testing.T) {
	var none *keepGate
	none.commit(0, 1)
	if none.closed(0) {
		t.Fatal("a job with no gate stops keeping rows")
	}
	g := newKeepGate(5, 4)
	closed := func() []bool {
		return []bool{g.closed(0), g.closed(1), g.closed(2), g.closed(3)}
	}
	steps := []struct {
		red, kept int
		want      []bool
	}{
		{2, 5, []bool{false, false, false, false}}, // its predecessors have not committed
		{0, 3, []bool{false, false, false, false}}, // the prefix keeps 3 < 5
		{1, 2, []bool{false, false, true, true}},   // reducers 0 and 1 keep 5
		{3, 0, []bool{false, false, true, true}},
	}
	for _, st := range steps {
		g.commit(st.red, st.kept)
		if got := closed(); !slices.Equal(got, st.want) {
			t.Fatalf("after reducer %d commits %d rows: closed %v, want %v", st.red, st.kept, got, st.want)
		}
	}
}

// TestCappedEmitCopiesNothing: a result attempt past its cap copies no
// row into its slab, yet counts and prices every row and hashes each as
// the row its parts make.
func TestCappedEmitCopiesNothing(t *testing.T) {
	l := relation.Tuple{relation.Int(1), relation.Str("left")}
	r := relation.Tuple{relation.Float(-0.5), relation.Null(), relation.TimeUnix(60)}
	row := append(l.Clone(), r...)
	rc := &ReduceContext{hasher: new(relation.RowHasher), keep: 3, arity: len(row)}
	for i := 0; i < 3; i++ {
		rc.EmitConcat(l, r)
	}
	slab := rc.slab
	for i := 0; i < 97; i++ {
		rc.EmitConcat(l, r)
	}
	rc.EmitConcat(row)
	if len(rc.out) != 3 || len(rc.slab) != len(slab) || &rc.slab[0] != &slab[0] {
		t.Errorf("kept %d rows, want 3; the slab moved or grew past the cap", len(rc.out))
	}
	if got := rc.sizes[row.EncodedSize()]; got != 101 || len(rc.sizes) != 1 {
		t.Errorf("sizes = %v, want 101 rows of %d B", rc.sizes, row.EncodedSize())
	}
	if want := 101 * relation.RowHash(row); rc.rowSum != want {
		t.Errorf("row-hash sum %#x, want %#x", rc.rowSum, want)
	}
}

// TestCappedAttemptAllocationsFixed: a result attempt capped at ten
// rows makes as many allocations whether the gate closes on it after
// one kept row or after ten, so a run's allocations do not depend on
// when its reducers read the watermark.
func TestCappedAttemptAllocationsFixed(t *testing.T) {
	l := relation.Tuple{relation.Int(1), relation.Str("left")}
	r := relation.Tuple{relation.Float(-0.5), relation.Null(), relation.TimeUnix(60)}
	allocs := func(kept int) float64 {
		return testing.AllocsPerRun(20, func() {
			gate := newKeepGate(10, 2)
			rc := &ReduceContext{hasher: new(relation.RowHasher), keep: 10, red: 1, arity: len(l) + len(r), gate: gate}
			for i := 0; i < 40; i++ {
				if i == kept {
					gate.commit(0, 10)
				}
				rc.EmitConcat(l, r)
			}
			rc.trim()
			if len(rc.out) != kept {
				t.Fatalf("kept %d rows, want %d", len(rc.out), kept)
			}
		})
	}
	want := allocs(10)
	for kept := 1; kept < 10; kept++ {
		if got := allocs(kept); got != want {
			t.Errorf("%d rows kept: %v allocations; ten kept: %v", kept, got, want)
		}
	}
}

// TestResultHashResumesSharedPrefixes: a result job's reducer emits
// many rows per shared prefix, as a depth-first join does — a head part
// it builds per key, then each row of the key's group, then each row
// again — over several keys per reducer. The head is one buffer per
// reducer, rewritten for every key, so the row hasher must start each
// Reduce call afresh. At every Keep, on one worker or four, the
// row-hash sum is SumRowHashes of the rows the uncapped run keeps.
func TestResultHashResumesSharedPrefixes(t *testing.T) {
	const nRed, keys = 3, 12
	var vals []int64
	for v := int64(0); v < 60; v++ {
		vals = append(vals, v)
	}
	job := &Job{
		Name:   "prefixes",
		Inputs: []Input{{Rel: intsRelation("in", vals...), Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64() % keys)) }}},
		OutputSchema: relation.MustSchema(relation.Column{Name: "k", Kind: relation.KindInt}, relation.Column{Name: "label", Kind: relation.KindString},
			relation.Column{Name: "a", Kind: relation.KindInt}, relation.Column{Name: "b", Kind: relation.KindInt}),
		OutputName:  "prefixes",
		NumReducers: nRed,
		Result:      true,
	}
	var mu [nRed]sync.Mutex // an attempt and its backup share a head
	var heads [nRed]relation.Tuple
	job.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
		red := key % nRed
		mu[red].Lock()
		defer mu[red].Unlock()
		if heads[red] == nil {
			heads[red] = make(relation.Tuple, 2)
		}
		head := heads[red]
		head[0], head[1] = relation.Int(int64(key)), relation.Str(fmt.Sprintf("key %d", key))
		for _, a := range groups[0] {
			for _, b := range groups[0] {
				ctx.EmitConcat(head, a, b)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.MaxParallelWorkers = workers
		all := *job
		all.Keep = -1
		ref := mustRun(t, cfg, &all)
		want := relation.SumRowHashes(ref.Output.Tuples)
		if ref.Rows != 60*5 || len(ref.Output.Tuples) != ref.Rows {
			t.Fatalf("workers=%d: %d rows, %d kept; want 300 of each", workers, ref.Rows, len(ref.Output.Tuples))
		}
		for _, keep := range []int{-1, 0, 10} {
			capped := *job
			capped.Keep = keep
			res := mustRun(t, cfg, &capped)
			if res.Rows != ref.Rows || res.RowHashSum != want {
				t.Errorf("workers=%d keep=%d: %d rows, row-hash sum %#x; want %d, %#x",
					workers, keep, res.Rows, res.RowHashSum, ref.Rows, want)
			}
		}
	}
}
