package mr

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
)

// emitMixed drives a ReduceContext the way reducers do — mostly
// EmitConcat, of varying width, with caller-built Emit rows in between —
// and returns a deep copy of what the rows must hold.
func emitMixed(rc *ReduceContext, rows int) []relation.Tuple {
	want := make([]relation.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		l := relation.Tuple{relation.Int(int64(i)), relation.Str("left")}
		r := relation.Tuple{relation.Float(float64(i) / 2), relation.Null(), relation.TimeUnix(int64(i))}
		switch {
		case i%7 == 3:
			rc.Emit(relation.Tuple{relation.Int(int64(-i))})
			want = append(want, relation.Tuple{relation.Int(int64(-i))})
		case i%5 == 0:
			rc.EmitConcat(l, r, l)
			want = append(want, append(append(l.Clone(), r...), l...))
		default:
			rc.EmitConcat(l, r)
			want = append(want, append(l.Clone(), r...))
		}
	}
	return want
}

// TestEmitConcatRowsAreIsolated: slab rows are capacity-limited, so an
// append on one reallocates instead of overwriting the next, and trim
// re-points the last chunk's rows without changing a value.
func TestEmitConcatRowsAreIsolated(t *testing.T) {
	for _, rows := range []int{1, 40, 5000} {
		rc := &ReduceContext{}
		want := emitMixed(rc, rows)
		check := func(when string) {
			t.Helper()
			if !sameRows(rc.out, want) {
				t.Fatalf("%d rows, %s: emitted rows changed", rows, when)
			}
		}
		check("after emitting")
		for i, row := range rc.out {
			if i%7 != 3 && cap(row) != len(row) {
				t.Fatalf("%d rows: slab row %d has cap %d, len %d", rows, i, cap(row), len(row))
			}
			grown := append(row, relation.Str("clobber"))
			grown[len(grown)-1] = relation.Str("clobber again")
		}
		check("after appending to every row")

		rc.trim()
		check("after trim")
		if slack := cap(rc.slab) - len(rc.slab); slack > len(rc.slab)/64+pageValues {
			t.Errorf("%d rows: trim left %d unused values behind %d used", rows, slack, len(rc.slab))
		}
		for i := rc.slabRow0; i < len(rc.out); i++ {
			if row := rc.out[i]; i%7 != 3 && cap(row) != len(row) {
				t.Fatalf("%d rows: trimmed row %d has cap %d, len %d", rows, i, cap(row), len(row))
			}
		}
		// The trimmed rows live in the new block: writing one must not
		// show through another.
		rc.out[len(rc.out)-1][0] = relation.Str("poke")
		want[len(want)-1][0] = relation.Str("poke")
		check("after writing through a trimmed row")

		var rawBytes, counted int64
		for _, row := range rc.out {
			rawBytes += int64(row.EncodedSize())
		}
		for size, n := range rc.sizes {
			rawBytes -= int64(size) * n
			counted += n
		}
		if rawBytes != 0 || counted != int64(rows) {
			t.Errorf("%d rows: per-size counts cover %d rows and miss %d bytes", rows, counted, rawBytes)
		}
	}
}

// pageValues is the allocator's rounding on a large block (8 KiB) in
// 24-byte values: the one amount of padding trim cannot give back.
const pageValues = 8192/24 + 1

// TestSlabSlackBounded: what a finished attempt keeps allocated for its
// rows stays within 2% (plus one page) of what the rows hold, for small
// and large outputs alike.
func TestSlabSlackBounded(t *testing.T) {
	l := relation.Tuple{relation.Int(1), relation.Int(2), relation.Int(3), relation.Int(4), relation.Int(5), relation.Int(6), relation.Int(7)}
	for _, rows := range []int{3, 100, 1200, 40000} {
		rc := &ReduceContext{}
		chunks := map[*relation.Value]int{} // first value of a chunk → its capacity
		for i := 0; i < rows; i++ {
			rc.EmitConcat(l, l, l)
			chunks[&rc.slab[:1][0]] = cap(rc.slab)
		}
		delete(chunks, &rc.slab[:1][0])
		rc.trim()
		held := cap(rc.slab)
		for _, c := range chunks {
			held += c
		}
		used := rows * 3 * len(l)
		if held < used || held-used > used/50+pageValues {
			t.Errorf("%d rows: %d values held for %d used (%.1f%% slack)", rows, held, used, 100*float64(held-used)/float64(used))
		}
	}
}

// concatJoinJob is an equi-join on column 0 whose reducer emits through
// EmitConcat, with one caller-built row per key.
func concatJoinJob(left, right *relation.Relation, reducers int) *Job {
	return &Job{
		Name: "concat",
		Inputs: []Input{
			{Rel: left, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64()), 0) }},
			{Rel: right, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64()), 1) }},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			for _, a := range groups[0] {
				for _, b := range groups[1] {
					ctx.EmitConcat(a, b)
				}
			}
			first := append(groups[0], groups[1]...)[0]
			ctx.Emit(append(first.Clone(), first...))
		},
		NumReducers:  reducers,
		OutputName:   "joined",
		OutputSchema: left.Schema.Concat("l.", right.Schema, "r."),
	}
}

// TestSlabOutputUnderFaultsAndSpeculation: killed, retried and
// speculatively duplicated reduce attempts each build their own slabs;
// exactly one set is committed, so the output and every byte metric
// equal the fault-free run's, and the per-size accounting equals a walk
// over the output.
func TestSlabOutputUnderFaultsAndSpeculation(t *testing.T) {
	left, right := spillProbeRelation(t, 1500), spillProbeRelation(t, 900)
	clean := mustRun(t, smallConfig(), concatJoinJob(left, right, 6))
	if clean.Output.Cardinality() < 10000 {
		t.Fatalf("probe join too small to fill a slab chunk: %d rows", clean.Output.Cardinality())
	}
	if got, want := clean.Metrics.OutputRawBytes, clean.Output.EncodedSize(); got != want {
		t.Errorf("OutputRawBytes = %d, the output's EncodedSize is %d", got, want)
	}
	var modeled int64
	for _, row := range clean.Output.Tuples {
		modeled += int64(float64(row.EncodedSize()) * clean.Output.VolumeMultiplier)
	}
	if clean.Metrics.OutputBytes != modeled {
		t.Errorf("OutputBytes = %d, summing row by row gives %d", clean.Metrics.OutputBytes, modeled)
	}

	plan, err := ParseFaultPlan("seed=11,reduce-kills=3,stragglers=2,delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	oldFloor, oldMin := specFloor, specMinSamples
	specFloor, specMinSamples = 5*time.Millisecond, 1
	defer func() { specFloor, specMinSamples = oldFloor, oldMin }()
	for _, w := range []int{1, runtime.NumCPU()} {
		cfg := smallConfig()
		cfg.MaxParallelWorkers = w
		cfg.Faults = plan
		cfg.SpeculativeFactor = 1
		res := mustRun(t, cfg, concatJoinJob(left, right, 6))
		requireSameOutput(t, clean.Output, res.Output, "faulted vs clean")
		t.Logf("workers=%d: %d reduce attempts, %d speculative launched, %d won", w,
			res.Metrics.ReduceAttempts, res.Metrics.SpeculativeLaunched, res.Metrics.SpeculativeWins)
		if res.Metrics.ReduceFailures < 3 {
			t.Errorf("workers=%d: %d reduce failures charged, plan has 3", w, res.Metrics.ReduceFailures)
		}
		if res.Metrics.OutputBytes != clean.Metrics.OutputBytes || res.Metrics.OutputRawBytes != clean.Metrics.OutputRawBytes ||
			!reflect.DeepEqual(res.Metrics.ReducerOutputBytes, clean.Metrics.ReducerOutputBytes) {
			t.Errorf("workers=%d: output bytes diverged from the clean run: %+v vs %+v", w, zeroWallM(res.Metrics), zeroWallM(clean.Metrics))
		}
	}
}
