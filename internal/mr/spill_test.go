package mr

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
)

// zeroWallM strips the measured wall-clock fields and the wall-clock-
// dependent attempt counters (retry and speculation scheduling follow
// real time), which legitimately vary between runs; every other metric
// must be bit-identical.
func zeroWallM(m Metrics) Metrics {
	m.Wall = WallTime{}
	m.MapAttempts = 0
	m.ReduceAttempts = 0
	m.SpeculativeLaunched = 0
	m.SpeculativeWins = 0
	return m
}

// spillProbeRelation builds an interned-string relation whose shuffle
// pairs exercise the raw pair codec end to end: dictionary code slots,
// plain strings, NULLs and numeric payloads.
func spillProbeRelation(t testing.TB, rows int) *relation.Relation {
	t.Helper()
	r := relation.New("probe", relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "city", Kind: relation.KindString},
		relation.Column{Name: "w", Kind: relation.KindFloat},
	))
	cities := []string{"amsterdam", "beijing", "chicago", "delhi", "edinburgh"}
	for i := 0; i < rows; i++ {
		city := relation.Str(cities[i%len(cities)])
		if i%11 == 0 {
			city = relation.Null()
		}
		r.MustAppend(relation.Tuple{
			relation.Int(int64(i % 41)),
			city,
			relation.Float(float64(i) * 0.75),
		})
	}
	relation.InternStrings(r)
	return r
}

// groupJob groups the probe relation by k and emits per-group counts
// plus a representative (interned) city value, so output byte metrics
// depend on code slots surviving the shuffle.
func groupJob(in *relation.Relation, reducers int) *Job {
	outSchema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "city", Kind: relation.KindString},
		relation.Column{Name: "n", Kind: relation.KindInt},
	)
	return &Job{
		Name:   "group",
		Inputs: []Input{{Rel: in, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64()), 0, t) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			values := groups[0]
			var city relation.Value
			for _, v := range values {
				if !v[1].IsNull() {
					city = v[1]
					break
				}
			}
			ctx.Emit(relation.Tuple{values[0][0], city, relation.Int(int64(len(values)))})
		},
		NumReducers:  reducers,
		OutputName:   "groups",
		OutputSchema: outSchema,
		OutputDicts:  []*relation.Dict{nil, in.DictOf(1), nil},
	}
}

func mustRun(t *testing.T, cfg Config, job *Job) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, nil, job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRows reports whether two row sets are bit-identical, value by
// value (relation.Identical): == and reflect.DeepEqual on a Value
// compare where a string lives, not what it says.
func sameRows(a, b []relation.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y relation.Tuple) bool {
		return slices.EqualFunc(x, y, relation.Identical)
	})
}

func requireSameOutput(t *testing.T, a, b *relation.Relation, where string) {
	t.Helper()
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("%s: %d vs %d output tuples", where, len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if len(a.Tuples[i]) != len(b.Tuples[i]) {
			t.Fatalf("%s: row %d arity differs", where, i)
		}
		for j := range a.Tuples[i] {
			if !relation.Identical(a.Tuples[i][j], b.Tuples[i][j]) {
				t.Fatalf("%s: row %d col %d: %#v vs %#v", where, i, j, a.Tuples[i][j], b.Tuples[i][j])
			}
		}
	}
}

// TestSpillEquivalence: forcing out-of-core execution with a tiny
// budget changes no output bit and no byte-level metric — only the
// spill/live-bytes accounting moves.
func TestSpillEquivalence(t *testing.T) {
	in := spillProbeRelation(t, 900)
	cfg := smallConfig()
	base := mustRun(t, cfg, groupJob(in, 5))

	spillCfg := cfg
	spillCfg.SpillBudgetBytes = 512 // force many flushes per task
	spilled := mustRun(t, spillCfg, groupJob(in, 5))

	requireSameOutput(t, base.Output, spilled.Output, "spill on/off")

	bm, sm := zeroWallM(base.Metrics), zeroWallM(spilled.Metrics)
	if sm.SpillBytes <= 0 || sm.SpillRuns <= 0 {
		t.Fatalf("budgeted run did not spill: %+v", sm)
	}
	if bm.SpillBytes != 0 || bm.SpillRuns != 0 {
		t.Fatalf("in-memory run reports spills: %+v", bm)
	}
	if sm.PeakLiveBytes >= bm.PeakLiveBytes {
		t.Fatalf("peak live bytes did not drop: spill %d vs in-memory %d", sm.PeakLiveBytes, bm.PeakLiveBytes)
	}
	// Everything else must match bit for bit.
	sm.SpillBytes, sm.SpillRuns, sm.PeakLiveBytes = bm.SpillBytes, bm.SpillRuns, bm.PeakLiveBytes
	if !reflect.DeepEqual(bm, sm) {
		t.Fatalf("metrics diverged between spill on/off:\nbase:  %+v\nspill: %+v", bm, sm)
	}
}

// TestSpillDeterministicAcrossWorkers: with spill forced on, output
// and all non-wall metrics stay bit-identical for any worker count.
func TestSpillDeterministicAcrossWorkers(t *testing.T) {
	in := spillProbeRelation(t, 700)
	var first *Result
	for _, workers := range []int{1, 2, 8} {
		cfg := smallConfig()
		cfg.SpillBudgetBytes = 1024
		cfg.MaxParallelWorkers = workers
		res := mustRun(t, cfg, groupJob(in, 4))
		if first == nil {
			first = res
			continue
		}
		requireSameOutput(t, first.Output, res.Output, "across workers")
		if !reflect.DeepEqual(zeroWallM(first.Metrics), zeroWallM(res.Metrics)) {
			t.Fatalf("metrics diverged at %d workers:\n%+v\nvs\n%+v",
				workers, zeroWallM(first.Metrics), zeroWallM(res.Metrics))
		}
	}
}

// TestSpillBoundedMemoryLargeWorkload drives the acceptance story: a
// shuffle several times larger than the budget completes under it,
// produces the identical result, and the accounted peak drops by more
// than half.
func TestSpillBoundedMemoryLargeWorkload(t *testing.T) {
	in := spillProbeRelation(t, 4000)
	cfg := smallConfig()
	job := groupJob(in, 8)
	base := mustRun(t, cfg, job)
	basePeak := base.Metrics.PeakLiveBytes
	if basePeak <= 0 {
		t.Fatalf("no accounted peak on the in-memory run: %+v", base.Metrics)
	}

	budget := basePeak / 16
	if budget < 256 {
		budget = 256
	}
	spillCfg := cfg
	spillCfg.SpillBudgetBytes = budget
	spilled := mustRun(t, spillCfg, groupJob(in, 8))

	if relation.ContentHash(spilled.Output) != relation.ContentHash(base.Output) {
		t.Fatal("content hash differs under a bounded budget")
	}
	if spilled.Metrics.SpillBytes < basePeak {
		t.Fatalf("expected the whole shuffle on disk: spilled %d, base peak %d",
			spilled.Metrics.SpillBytes, basePeak)
	}
	if spilled.Metrics.PeakLiveBytes*2 > basePeak {
		t.Fatalf("accounted peak dropped less than half: %d vs %d",
			spilled.Metrics.PeakLiveBytes, basePeak)
	}
}

// TestMemSourceRereadable pins what retries rest on: merging in-memory
// buckets yields (key, source) order and leaves the buckets untouched,
// so a second reduce attempt over the same buckets reads the same pairs.
func TestMemSourceRereadable(t *testing.T) {
	a := []pair{{key: 1, tuple: relation.Tuple{relation.Int(1)}}, {key: 5, tuple: relation.Tuple{relation.Int(5)}}}
	b := []pair{{key: 2, tuple: relation.Tuple{relation.Int(2)}}, {key: 9, tuple: relation.Tuple{relation.Int(9)}}}
	for attempt := 0; attempt < 2; attempt++ {
		srcs := []*pairSource{memSource(a, 1), memSource(b, 1)}
		var got []int64
		if err := mergeSources(srcs, func(p pair, _ *pairSource) error {
			got = append(got, p.tuple[0].Int64())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []int64{1, 2, 5, 9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("attempt %d: merged %v, want %v", attempt, got, want)
		}
		for i, s := range srcs {
			if !s.drained() {
				t.Fatalf("attempt %d: source %d not drained", attempt, i)
			}
		}
	}
}

// TestTempSpillStore: the fallback store round-trips bytes and cleans
// up after itself.
func TestTempSpillStore(t *testing.T) {
	store, err := NewTempSpillStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := store.CreateSpillFile()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("spill payload bytes")
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload)-6)
	if _, err := f.ReadAt(got, 6); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload[6:]) {
		t.Fatalf("read back %q", got)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
