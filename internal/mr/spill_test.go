package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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
// pairs carry every kind of value through the spill path: dictionary
// code slots, plain strings, NULLs and numeric payloads.
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
	if err := relation.InternStrings(r); err != nil {
		t.Fatal(err)
	}
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
		Inputs: []Input{{Rel: in, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			values := groups[0]
			var city relation.Value
			for _, v := range values {
				if !v[1].IsNull() {
					city = v[1]
					break
				}
			}
			ctx.EmitConcat(relation.Tuple{values[0][0], city, relation.Int(int64(len(values)))})
		},
		NumReducers:  reducers,
		OutputName:   "groups",
		OutputSchema: outSchema,
		OutputDicts:  []*relation.Dict{nil, in.DictOf(1), nil},
	}
}

func mustRun(t *testing.T, cfg Config, job *Job) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, job)
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
	spillCfg.Spill = tempSpill(t)
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
		cfg.Spill = tempSpill(t)
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
// produces the identical result with every pair on disk, and the
// accounted peak drops by more than half.
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
	spillCfg.Spill = tempSpill(t)
	spilled := mustRun(t, spillCfg, groupJob(in, 8))

	if relation.ContentHash(spilled.Output) != relation.ContentHash(base.Output) {
		t.Fatal("content hash differs under a bounded budget")
	}
	if onDisk, inMemory := spilledPairCount(t, spillCfg, groupJob(in, 8)); onDisk != in.Cardinality() || inMemory != 0 {
		t.Fatalf("expected the whole shuffle on disk: %d of %d emitted pairs in spilled segments, %d in memory",
			onDisk, in.Cardinality(), inMemory)
	}
	if spilled.Metrics.PeakLiveBytes*2 > basePeak {
		t.Fatalf("accounted peak dropped less than half: %d vs %d",
			spilled.Metrics.PeakLiveBytes, basePeak)
	}
}

// spilledPairCount runs job's map phase under cfg and counts the pairs
// its committed spill segments hold and those left in in-memory buckets.
func spilledPairCount(t *testing.T, cfg Config, job *Job) (onDisk, inMemory int) {
	t.Helper()
	r := &run{cfg: cfg, rates: PaperRates(), job: job, workers: 2, nRed: job.NumReducers}
	r.planTasks()
	defer r.releaseSpill()
	if err := r.mapPhase(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, m := range r.mapped {
		for _, fl := range m.flushes {
			for _, seg := range fl.segs {
				onDisk += seg.count
			}
		}
		for _, b := range m.buckets {
			inMemory += len(b)
		}
	}
	return onDisk, inMemory
}

// TestMemSourceRereadable pins what retries rest on: merging in-memory
// buckets yields (key, source) order and leaves the buckets untouched,
// so a second reduce attempt over the same buckets reads the same
// records.
func TestMemSourceRereadable(t *testing.T) {
	a := []record{{key: 1, row: 0}, {key: 5, row: 1}}
	b := []record{{key: 2, row: 0}, {key: 9, row: 1}}
	for attempt := 0; attempt < 2; attempt++ {
		srcs := []pairSource{memSource(a, 0), memSource(b, 1)}
		var got []uint64
		var tasks []int
		if err := new(merger).merge(srcs, nil, func(rec record, task int) error {
			got = append(got, rec.key)
			tasks = append(tasks, task)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{1, 2, 5, 9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("attempt %d: merged %v, want %v", attempt, got, want)
		}
		if want := []int{0, 1, 0, 1}; !reflect.DeepEqual(tasks, want) {
			t.Fatalf("attempt %d: merged from tasks %v, want %v", attempt, tasks, want)
		}
		for i := range srcs {
			if !srcs[i].drained() {
				t.Fatalf("attempt %d: source %d not drained", attempt, i)
			}
		}
	}
}

// latticeJob is a random 2–3-input job over few keys, so key runs mix
// inputs and distinct k values collide on one key, with an optional
// replicating Partitioner. Its reducer emits every (first, other input)
// row pair of the key run through EmitConcat and one summary row per
// input, so the output depends on each group's contents and order.
func latticeJob(rng *rand.Rand) *Job {
	schema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
	)
	outSchema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "k2", Kind: relation.KindInt},
		relation.Column{Name: "s2", Kind: relation.KindString},
	)
	keys := 2 + rng.Intn(12)
	inputs := make([]Input, 2+rng.Intn(2))
	for i := range inputs {
		rel := relation.New(fmt.Sprintf("in%d", i), schema)
		for j, n := 0, 20+rng.Intn(60); j < n; j++ {
			rel.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(40))), relation.Str(fmt.Sprintf("r%d.%d", i, j))})
		}
		inputs[i] = Input{Rel: rel, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64()) % uint64(keys)) }}
	}
	job := &Job{
		Name:   "lattice",
		Inputs: inputs,
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			for _, other := range groups[1:] {
				for _, a := range groups[0] {
					for _, b := range other {
						ctx.EmitConcat(a, b)
					}
				}
			}
			for i, g := range groups {
				ctx.EmitConcat(relation.Tuple{relation.Int(int64(key)), relation.Str(fmt.Sprint("input ", i)),
					relation.Int(int64(len(g))), relation.Null()})
			}
		},
		NumReducers:  1 + rng.Intn(6),
		OutputName:   "lattice",
		OutputSchema: outSchema,
	}
	if rng.Intn(2) == 0 {
		job.Partitioner = fanOut{}
	}
	return job
}

// TestSpillModeLattice runs seeded random jobs in every cell of the
// engine's mode lattice — spill budget 0, 64 B and 1 KiB, one worker or
// four, and no faults or map and reduce kills plus stragglers under
// speculation — and requires each cell's output to be identical row for
// row, with equal ShuffleBytes and PairsEmitted, and an equal simulated
// clock for each fault plan (the plan's kills are charged to it). The
// job runs as a query's result, so each cell's reducers also count and
// hash its rows, which must give the output's ContentHash.
func TestSpillModeLattice(t *testing.T) {
	quickSpeculation(t, time.Millisecond)
	store := tempSpill(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		job := latticeJob(rng)
		job.Result, job.Keep = true, -1
		plan, err := ParseFaultPlan(fmt.Sprintf("seed=%d,map-kills=2,reduce-kills=2,stragglers=2,delay=2ms", trial))
		if err != nil {
			t.Fatal(err)
		}
		var first *Result
		var sims [2]*SimTime
		for f, faults := range []*FaultPlan{nil, plan} {
			for _, workers := range []int{1, 4} {
				for _, budget := range []int64{0, 64, 1 << 10} {
					cfg := smallConfig()
					cfg.TuplesPerMapTask = 5
					cfg.MaxParallelWorkers = workers
					cfg.SpillBudgetBytes = budget
					cfg.Spill = store
					cfg.Faults = faults
					res := mustRun(t, cfg, job)
					cell := fmt.Sprintf("trial %d (%d inputs, %d reducers, partitioner %v) faults=%v workers=%d budget=%d",
						trial, len(job.Inputs), job.NumReducers, job.Partitioner != nil, faults != nil, workers, budget)
					if budget > 0 && res.Metrics.SpillRuns == 0 {
						t.Errorf("%s: nothing spilled", cell)
					}
					if res.Rows != len(res.Output.Tuples) || relation.ContentHashOf(res.Output.Schema, res.Rows, res.RowHashSum) != relation.ContentHash(res.Output) {
						t.Errorf("%s: the reducers counted %d rows and hashed them other than the %d-row output's ContentHash",
							cell, res.Rows, len(res.Output.Tuples))
					}
					if faults != nil && res.Metrics.MapFailures+res.Metrics.ReduceFailures == 0 {
						t.Errorf("%s: the plan's kills were not charged", cell)
					}
					if sims[f] == nil {
						sims[f] = &res.Metrics.Sim
					} else if res.Metrics.Sim != *sims[f] {
						t.Errorf("%s: simulated clock %+v, first cell of its plan %+v", cell, res.Metrics.Sim, *sims[f])
					}
					if first == nil {
						first = res
						continue
					}
					requireSameOutput(t, first.Output, res.Output, cell)
					if m, w := res.Metrics, first.Metrics; m.ShuffleBytes != w.ShuffleBytes || m.PairsEmitted != w.PairsEmitted {
						t.Errorf("%s: shuffle %d bytes in %d pairs, the first cell %d in %d",
							cell, m.ShuffleBytes, m.PairsEmitted, w.ShuffleBytes, w.PairsEmitted)
					}
				}
			}
		}
		if len(first.Output.Tuples) == 0 {
			t.Errorf("trial %d: the job produced nothing", trial)
		}
	}
}

// countingSpillFile counts the reads a spill file serves.
type countingSpillFile struct {
	SpillFile
	reads int
}

func (c *countingSpillFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.SpillFile.ReadAt(p, off)
}

// spilledSegment writes recs as one segment of checksummed frames, behind
// another segment's bytes, to a temp spill file, with edit free to
// alter the segment's bytes first. It returns the file, counting its
// reads, the segment and how many frames it holds.
func spilledSegment(t *testing.T, recs []record, edit func(seg []byte)) (*countingSpillFile, spillSegment, int) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("the previous reducer's segment")
	off := int64(buf.Len())
	fw := &frameWriter{dst: &buf}
	for _, rec := range recs {
		if err := fw.writeRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.finish(); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(buf.Bytes()[off:])
	}
	store, err := NewTempSpillStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := store.CreateSpillFile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Release()
		store.Close()
	})
	if _, err := f.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	seg := spillSegment{off: off, n: int64(buf.Len()) - off, count: len(recs), firstKey: recs[0].key, lastKey: recs[len(recs)-1].key}
	return &countingSpillFile{SpillFile: f}, seg, fw.frames
}

// drainSegment reads a segment's records back through a disk source of
// a task whose split is split.
func drainSegment(f SpillFile, seg spillSegment, split []relation.Tuple) ([]record, error) {
	srcs := []pairSource{diskSource(f, seg, 0, nil)}
	new(merger).carve(srcs, true)
	src := &srcs[0]
	sizes := [][]uint32{rowSizes(split)}
	var got []record
	for !src.drained() {
		rec, err := src.next(sizes)
		if err != nil {
			return got, err
		}
		got = append(got, rec)
	}
	return got, nil
}

// frameRecords returns a split of rows rows and n records naming them in
// turn, so that past the 128th row the ordinals take two bytes.
func frameRecords(n, rows int) ([]relation.Tuple, []record) {
	split := make([]relation.Tuple, rows)
	for i := range split {
		split[i] = relation.Tuple{relation.Int(int64(i)), relation.Str(fmt.Sprintf("city-%08d", i)), relation.Float(float64(i) / 3)}
	}
	recs := make([]record, n)
	for i := range recs {
		recs[i] = record{key: uint64(i), row: uint32(i % rows), size: uint32(split[i%rows].EncodedSize())}
	}
	return split, recs
}

// TestSpillFrameReads: a segment costs one read per frame, header and
// payload together, whatever length its last record has, and decodes
// exactly.
func TestSpillFrameReads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, rows int
	}{
		{"small frames", 12000, 300},
		{"small frames, one short", 300, 300},
		{"one-byte ordinals", 12000, 100},
	} {
		split, recs := frameRecords(tc.n, tc.rows)
		f, seg, frames := spilledSegment(t, recs, nil)
		got, err := drainSegment(f, seg, split)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, recs) {
			t.Fatalf("%s: the segment decodes to other records", tc.name)
		}
		if f.reads != frames {
			t.Errorf("%s: %d frames took %d reads", tc.name, frames, f.reads)
		}
	}
}

// TestSpillFrameCorruptRetryable: a corrupt frame header or payload
// fails the read with an error the attempt layer retries.
func TestSpillFrameCorruptRetryable(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(seg []byte)
	}{
		{"length past the segment", "header corrupt", func(seg []byte) { binary.LittleEndian.PutUint32(seg, 1<<30) }},
		{"length past one read", "header corrupt", func(seg []byte) {
			binary.LittleEndian.PutUint32(seg, spillFrameSize+spillFrameSlack+1)
		}},
		{"zero length", "header corrupt", func(seg []byte) { binary.LittleEndian.PutUint32(seg, 0) }},
		{"payload bit rot", "checksum mismatch", func(seg []byte) { seg[spillFrameHeader+5] ^= 0x10 }},
	} {
		split, recs := frameRecords(9000, 300)
		f, seg, _ := spilledSegment(t, recs, tc.edit)
		_, err := drainSegment(f, seg, split)
		if err == nil || !isRetryable(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a retryable %q", tc.name, err, tc.want)
		}
	}
}

// TestSpilledPairsAreTheirRows: a spilled pair is resolved to the very
// row its map task read, not to a copy: under a tiny budget every tuple
// Reduce is handed is a row of the input, and the output is identical to
// the in-memory run's. A frame whose checksum holds but whose record
// names a row past its split is an error.
func TestSpilledPairsAreTheirRows(t *testing.T) {
	split, recs := frameRecords(5000, 300)
	f, seg, _ := spilledSegment(t, recs, nil)
	if _, err := drainSegment(f, seg, split[:299]); err == nil || !strings.Contains(err.Error(), "past its split") {
		t.Errorf("a row past the split: err = %v", err)
	}

	in := spillProbeRelation(t, 900)
	isRow := make(map[*relation.Value]bool, len(in.Tuples))
	for _, row := range in.Tuples {
		isRow[&row[0]] = true
	}
	base := mustRun(t, smallConfig(), groupJob(in, 5))
	job := groupJob(in, 5)
	reduce := job.Reduce
	job.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
		for _, v := range groups[0] {
			if !isRow[&v[0]] {
				t.Errorf("key %d: Reduce was handed a copy of a row, %v", key, v)
			}
		}
		reduce(key, groups, ctx)
	}
	cfg := smallConfig()
	cfg.SpillBudgetBytes = 256
	cfg.Spill = tempSpill(t)
	spilled := mustRun(t, cfg, job)
	if spilled.Metrics.SpillRuns == 0 {
		t.Fatal("the budgeted run did not spill")
	}
	requireSameOutput(t, base.Output, spilled.Output, "spilled rows")
}

// failingSpillStore hands out temp spill files whose writes fail once
// they have taken a few frames.
type failingSpillStore struct{ *TempSpillStore }

func (s failingSpillStore) CreateSpillFile() (SpillFile, error) {
	f, err := s.TempSpillStore.CreateSpillFile()
	return &failingSpillFile{SpillFile: f}, err
}

type failingSpillFile struct {
	SpillFile
	written int
}

func (f *failingSpillFile) Write(p []byte) (int, error) {
	if f.written += len(p); f.written > 3*spillFrameSize {
		return 0, errors.New("disk full")
	}
	return f.SpillFile.Write(p)
}

// TestSpillWriteFailureReleasesFile: a spill file that fails to be
// written fails the job and is released, not left holding its storage.
func TestSpillWriteFailureReleasesFile(t *testing.T) {
	store, err := NewTempSpillStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := smallConfig()
	cfg.TuplesPerMapTask = 12000
	cfg.SpillBudgetBytes = 1 << 20
	cfg.Spill = failingSpillStore{store}
	if _, err := Run(context.Background(), cfg, groupJob(spillProbeRelation(t, 12000), 4)); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Run error = %v, want the write failure", err)
	}
	if live := store.Live(); live != 0 {
		t.Errorf("%d spill files left after a failed write", live)
	}
}

// TestTempSpillStore: the temp-file store round-trips bytes and cleans
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
