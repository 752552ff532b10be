package mr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
)

// emitMixed drives a ReduceContext the way reducers do — mostly
// EmitConcat, of varying width and with one-part rows in between —
// and returns a deep copy of what the rows must hold.
func emitMixed(rc *ReduceContext, rows int) []relation.Tuple {
	want := make([]relation.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		l := relation.Tuple{relation.Int(int64(i)), relation.Str("left")}
		r := relation.Tuple{relation.Float(float64(i) / 2), relation.Null(), relation.TimeUnix(int64(i))}
		switch {
		case i%7 == 3:
			rc.EmitConcat(relation.Tuple{relation.Int(int64(-i))})
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
// EmitConcat, plus one row per key that doubles the key's first tuple.
func concatJoinJob(left, right *relation.Relation, reducers int) *Job {
	return &Job{
		Name: "concat",
		Inputs: []Input{
			{Rel: left, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }},
			{Rel: right, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			for _, a := range groups[0] {
				for _, b := range groups[1] {
					ctx.EmitConcat(a, b)
				}
			}
			first := append(groups[0], groups[1]...)[0]
			ctx.EmitConcat(first, first)
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
	quickSpeculation(t, 5*time.Millisecond)
	for _, w := range []int{1, runtime.NumCPU()} {
		cfg := smallConfig()
		cfg.MaxParallelWorkers = w
		cfg.Faults = plan
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

// emitParts is BenchmarkReduceEmit's input, shaped like a 3-way join
// result: 100 k rows of two 7-value parts (a rid, five ints and a
// string) and 20 k rows whose second part is the third.
func emitParts() (left, right []relation.Tuple) {
	rng := rand.New(rand.NewSource(53))
	rows := func(n int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			for p := 0; p < 2; p++ {
				out[i] = append(out[i], relation.Int(int64(i)))
				for c := 0; c < 5; c++ {
					out[i] = append(out[i], relation.Int(rng.Int63n(1_000_000)))
				}
				out[i] = append(out[i], relation.Str(fmt.Sprintf("BS%05d", rng.Int63n(50))))
			}
		}
		return out
	}
	return rows(100_000), rows(20_000)
}

// BenchmarkReduceEmit times a reducer's output side alone: 100 k rows of
// three 7-value parts through one attempt's EmitConcat, as an ordinary
// job's reducer emits them ("plain"), as a query result's that hashes
// and keeps every row ("keep-all"), as one that hashes every row but
// keeps ten ("keep-10"), and as a job feeding the rid-merge that keeps
// one column of each part ("rids").
func BenchmarkReduceEmit(b *testing.B) {
	left, right := emitParts()
	for _, bc := range []struct {
		name    string
		result  bool
		keep    int
		project []int
	}{{"plain", false, -1, nil}, {"keep-all", true, -1, nil}, {"keep-10", true, 10, nil}, {"rids", false, -1, []int{0, 7, 14}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &ReduceContext{project: bc.project, keep: bc.keep, arity: 21, gate: newKeepGate(bc.keep, 1)}
				if bc.result {
					ctx.hasher = new(relation.RowHasher)
				}
				for j, t := range left {
					ctx.EmitConcat(t[:7], t[7:], right[j%len(right)][7:])
				}
			}
			b.ReportMetric(float64(len(left))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestProjectedJobPricesFullRows: a job with Project keeps only the
// projected columns of each row, in the unprojected job's row order,
// while every metric — output bytes per reducer included — is the one
// the full rows give. Validate rejects a projection that does not fit
// the output schema or is not ascending.
func TestProjectedJobPricesFullRows(t *testing.T) {
	rel := func(name string, n int) *relation.Relation {
		r := relation.New(name, relation.MustSchema(relation.Column{Name: "k", Kind: relation.KindInt},
			relation.Column{Name: "s", Kind: relation.KindString}, relation.Column{Name: "id", Kind: relation.KindInt}))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i % 7)), relation.Str(fmt.Sprintf("%s-payload-%d", name, i)), relation.Int(int64(i))})
		}
		return r
	}
	join := func(project []int, schema *relation.Schema) *Job {
		key := func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }
		return &Job{
			Name:   "join",
			Inputs: []Input{{Rel: rel("L", 60), Map: key}, {Rel: rel("R", 45), Map: key}},
			Reduce: func(_ uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
				for _, l := range groups[0] {
					for _, r := range groups[1] {
						ctx.EmitConcat(l, r)
					}
				}
			},
			NumReducers: 3, OutputName: "out", OutputSchema: schema, Project: project,
		}
	}
	full := join(nil, relation.MustSchema(relation.Column{Name: "L.k", Kind: relation.KindInt},
		relation.Column{Name: "L.s", Kind: relation.KindString}, relation.Column{Name: "L.id", Kind: relation.KindInt},
		relation.Column{Name: "R.k", Kind: relation.KindInt}, relation.Column{Name: "R.s", Kind: relation.KindString},
		relation.Column{Name: "R.id", Kind: relation.KindInt}))
	ids := relation.MustSchema(relation.Column{Name: "L.id", Kind: relation.KindInt}, relation.Column{Name: "R.id", Kind: relation.KindInt})
	want, err := Run(context.Background(), smallConfig(), full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), smallConfig(), join([]int{2, 5}, ids))
	if err != nil {
		t.Fatal(err)
	}
	if got.Output.Cardinality() != want.Output.Cardinality() || got.Output.Cardinality() == 0 {
		t.Fatalf("projected job emits %d rows, the full one %d", got.Output.Cardinality(), want.Output.Cardinality())
	}
	for i, row := range got.Output.Tuples {
		if w := want.Output.Tuples[i]; !sameRows([]relation.Tuple{row}, []relation.Tuple{{w[2], w[5]}}) {
			t.Fatalf("row %d is %v, want the ids of %v", i, row, w)
		}
	}
	if g, w := zeroWallM(got.Metrics), zeroWallM(want.Metrics); !reflect.DeepEqual(g, w) {
		t.Errorf("projected job's metrics differ:\n%+v\n%+v", g, w)
	}
	if got.Rows != want.Rows {
		t.Errorf("projected job counts %d rows, the full one %d", got.Rows, want.Rows)
	}
	for _, project := range [][]int{{2}, {5, 2}, {2, 2}, {-1, 5}} {
		if err := join(project, ids).Validate(); err == nil {
			t.Errorf("Project %v onto a 2-column schema accepted", project)
		}
	}
}
