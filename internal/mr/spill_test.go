package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// countingSpillFile counts the reads a spill file serves.
type countingSpillFile struct {
	SpillFile
	reads int
}

func (c *countingSpillFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.SpillFile.ReadAt(p, off)
}

// spilledSegment writes ps as one segment of checksummed frames, behind
// another segment's bytes, to a temp spill file, with edit free to
// alter the segment's bytes first. It returns the file, counting its
// reads, the segment and how many frames it holds.
func spilledSegment(t *testing.T, ps []pair, edit func(seg []byte)) (*countingSpillFile, spillSegment, int) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("the previous reducer's segment")
	off := int64(buf.Len())
	fw := &frameWriter{dst: &buf}
	for _, p := range ps {
		if err := fw.writePair(p); err != nil {
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
	seg := spillSegment{off: off, n: int64(buf.Len()) - off, count: len(ps), firstKey: ps[0].key, lastKey: ps[len(ps)-1].key}
	return &countingSpillFile{SpillFile: f}, seg, fw.frames
}

// drainSegment reads a segment's pairs back through a disk source.
func drainSegment(f SpillFile, seg spillSegment) ([]pair, error) {
	var spare []byte
	src := diskSource(f, seg, 1, nil, 0, &spare)
	var got []pair
	for !src.drained() {
		p, err := src.next()
		if err != nil {
			return got, err
		}
		got = append(got, p)
	}
	return got, nil
}

// framePairs returns n pairs of some 60 encoded bytes each, then, when
// tail > 0, one pair carrying a tail-byte string placed so that it is
// the pair that takes its frame past spillFrameSize, then n more.
func framePairs(n, tail int) []pair {
	var ps []pair
	open := 0 // bytes of the frame a frameWriter would have open
	add := func(tp relation.Tuple) {
		p := pair{key: uint64(len(ps)), size: uint32(tp.EncodedSize()), tuple: tp}
		ps = append(ps, p)
		if open += len(appendPair(nil, p)); open >= spillFrameSize {
			open = 0
		}
	}
	small := func() {
		i := len(ps)
		add(relation.Tuple{relation.Int(int64(i)), relation.Str(fmt.Sprintf("city-%08d", i)), relation.Float(float64(i) / 3)})
	}
	for i := 0; i < n; i++ {
		small()
	}
	if tail > 0 {
		for open < spillFrameSize-100 {
			small()
		}
		add(relation.Tuple{relation.Str(strings.Repeat("t", tail))})
		for i := 0; i < n; i++ {
			small()
		}
	}
	return ps
}

// TestSpillFrameReads: a segment costs one read per frame, header and
// payload together — and one more for a frame whose last pair runs past
// the slack a first read allows — and decodes exactly.
func TestSpillFrameReads(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ps         []pair
		extraReads int
	}{
		{"small frames", framePairs(2000, 0), 0},
		{"small frames, one short", framePairs(30, 0), 0},
		{"a long last pair", framePairs(300, 3*spillFrameSlack), 1},
	} {
		f, seg, frames := spilledSegment(t, tc.ps, nil)
		got, err := drainSegment(f, seg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !samePairs(got, tc.ps) {
			t.Fatalf("%s: the segment decodes to other pairs", tc.name)
		}
		if f.reads != frames+tc.extraReads {
			t.Errorf("%s: %d frames took %d reads, want %d", tc.name, frames, f.reads, frames+tc.extraReads)
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
		{"zero length", "header corrupt", func(seg []byte) { binary.LittleEndian.PutUint32(seg, 0) }},
		{"payload bit rot", "checksum mismatch", func(seg []byte) { seg[spillFrameHeader+5] ^= 0x10 }},
	} {
		f, seg, _ := spilledSegment(t, framePairs(50, 0), tc.edit)
		_, err := drainSegment(f, seg)
		if err == nil || !isRetryable(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a retryable %q", tc.name, err, tc.want)
		}
	}
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
	cfg.TuplesPerMapTask = 4000
	cfg.SpillBudgetBytes = 1 << 20
	cfg.Spill = failingSpillStore{store}
	if _, err := Run(context.Background(), cfg, groupJob(spillProbeRelation(t, 4000), 4)); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Run error = %v, want the write failure", err)
	}
	if live := store.Live(); live != 0 {
		t.Errorf("%d spill files left after a failed write", live)
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
