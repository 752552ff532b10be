package mr

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/relation"
)

// TestReduceScratchLivesForOneRun: on one worker, a run's reducers split
// their key runs into the same buffers — each reducer starts on the
// array an earlier one grew, so its group views alias it — under an
// in-memory shuffle and a spilling one; and once Run returns and a GC
// runs, those buffers are gone: nothing outside the run holds them.
func TestReduceScratchLivesForOneRun(t *testing.T) {
	const nRed = 8
	var vals []int64
	for rep := 0; rep < 5; rep++ {
		for v := int64(0); v < 64; v++ {
			vals = append(vals, v)
		}
	}
	in := intsRelation("in", vals...)
	for _, budget := range []int64{0, 64} {
		var mu sync.Mutex
		// Weak pointers compare equal only when made from the same live
		// object, so an address the allocator hands out again after a
		// GC counts as a new buffer.
		bufs := map[weak.Pointer[relation.Tuple]]bool{}
		reducers := map[uint64]bool{}
		job := countJob(in, nRed)
		count := job.Reduce
		job.Reduce = func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			mu.Lock()
			bufs[weak.Make(&groups[0][0])] = true
			reducers[key%nRed] = true
			mu.Unlock()
			count(key, groups, ctx)
		}
		cfg := smallConfig()
		cfg.MaxParallelWorkers = 1
		cfg.SpillBudgetBytes = budget
		cfg.Spill = tempSpill(t)
		res := mustRun(t, cfg, job)
		if res.Rows != 64 || len(reducers) != nRed {
			t.Fatalf("budget %d: %d rows from %d reducers, want 64 from %d", budget, res.Rows, len(reducers), nRed)
		}
		// One buffer serves every reducer; a speculative backup, should
		// a slow machine launch one, brings its own.
		if len(bufs) > nRed/2 {
			t.Errorf("budget %d: %d reducers split their runs into %d buffers; want them reused", budget, nRed, len(bufs))
		}
		runtime.GC()
		for p := range bufs {
			if p.Value() != nil {
				t.Errorf("budget %d: a reduce buffer outlives its run", budget)
			}
		}
	}
}

// TestRetriedReducerStartsOnCleanScratch: a reduce attempt that fails
// mid-merge leaves part of a key run in its buffers and frames of its
// runs in its frame buffers; the retry, which takes the same scratch,
// must reduce the run from its first pair and read every frame afresh.
// A 64-byte budget spills each map task many times, so the reducer
// merges many runs; one run's frame reads back corrupt from every
// replica, failing the first attempt after it has buffered the runs
// before it. Every row has one key (a single key run), or the keys are
// ordered across the runs (read one after another, through one frame
// buffer) or interleave (merged, each run through a buffer of its own).
func TestRetriedReducerStartsOnCleanScratch(t *testing.T) {
	for _, keys := range []string{"one", "ordered", "interleaved"} {
		vals := make([]int64, 400)
		for i := range vals {
			switch keys {
			case "ordered":
				vals[i] = int64(i / 8)
			case "interleaved":
				vals[i] = int64(i % 50)
			}
		}
		in := intsRelation("in", vals...)
		cfg := smallConfig()
		cfg.MaxParallelWorkers = 1
		base := mustRun(t, cfg, countJob(in, 1))
		store, err := NewTempSpillStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		cfg.SpillBudgetBytes = 64
		cfg.Spill = &rottingSpillStore{TempSpillStore: store, from: 3, to: 3 + Replication}
		res := mustRun(t, cfg, countJob(in, 1))
		requireSameOutput(t, base.Output, res.Output, keys+" keys: retried reducer")
		if m := res.Metrics; m.ChecksumFailures != Replication || m.ReduceAttempts < 2 {
			t.Errorf("%s keys: %d checksum failures over %d reduce attempts; want %d failures failing an attempt",
				keys, m.ChecksumFailures, m.ReduceAttempts, Replication)
		}
	}
}

// rottingSpillStore hands out temp spill files whose reads number
// from..to-1, counted across the store, come back with a payload byte
// flipped.
type rottingSpillStore struct {
	*TempSpillStore
	reads    atomic.Int64
	from, to int64
}

func (s *rottingSpillStore) CreateSpillFile() (SpillFile, error) {
	f, err := s.TempSpillStore.CreateSpillFile()
	return rottingSpillFile{SpillFile: f, store: s}, err
}

type rottingSpillFile struct {
	SpillFile
	store *rottingSpillStore
}

func (f rottingSpillFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.SpillFile.ReadAt(p, off)
	if r := f.store.reads.Add(1) - 1; r >= f.store.from && r < f.store.to && n > 0 {
		// A frame read starts with the header, a replica re-read with
		// the payload; either way this byte is the payload's.
		p[min(spillFrameHeader, n-1)] ^= 0xFF
	}
	return n, err
}

// reusedSpillFile is an in-memory spill file that a reusedSpillStore
// hands out again and again, so that a spill costs the file nothing.
type reusedSpillFile struct{ buf []byte }

func (f *reusedSpillFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *reusedSpillFile) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *reusedSpillFile) Seal() error    { return nil }
func (f *reusedSpillFile) Release() error { return nil }

type reusedSpillStore struct{ f *reusedSpillFile }

func (s reusedSpillStore) CreateSpillFile() (SpillFile, error) { return s.f, nil }

// TestMapTaskAllocations: one job over the same rows, split into 1, 10
// and 60 map tasks on one worker. An extra map task costs the run what
// it commits — its resident run's block and bucket headers, its
// outcome's commit and discard — the closure that schedules it and the
// boxed byte count of its span; the collector it maps into, emit
// included, is lent by the run. A closure over the attempt's state costs
// about nine more per task.
func TestMapTaskAllocations(t *testing.T) {
	const rows, perTaskPin = 960, 6.5
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	in := intsRelation("in", vals...)
	allocs := func(tasks int) float64 {
		cfg := smallConfig()
		cfg.MaxParallelWorkers = 1
		cfg.TuplesPerMapTask = rows / tasks
		job := countJob(in, 8)
		return testing.AllocsPerRun(20, func() {
			res, err := Run(context.Background(), cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.MapTasks != tasks || res.Rows != 97 {
				t.Fatalf("%d map tasks, %d rows; want %d and 97", res.Metrics.MapTasks, res.Rows, tasks)
			}
		})
	}
	one, ten, sixty := allocs(1), allocs(10), allocs(60)
	if perTask := (sixty - one) / 59; perTask > perTaskPin {
		t.Errorf("%v, %v and %v allocations at 1, 10 and 60 map tasks: %.2f per extra task, pinned at most %v",
			one, ten, sixty, perTask, perTaskPin)
	}
}

// TestSpillFlushAllocatesNothing: once its scratch has grown, a spilling
// map attempt collects a full budget of pairs and flushes them as sorted
// runs without an allocation.
func TestSpillFlushAllocatesNothing(t *testing.T) {
	const nRed, budget = 96, 64 << 10
	rng := rand.New(rand.NewSource(5))
	var recs []record
	var dest []int
	for used := int64(0); ; {
		rec := record{key: rng.Uint64() % 500, row: uint32(len(recs)), size: uint32(20 + rng.Intn(40))}
		if used += rec.realBytes(); used > budget {
			break
		}
		recs, dest = append(recs, rec), append(dest, rng.Intn(nRed))
	}
	file := &reusedSpillFile{}
	sc := &mapScratch{nRed: nRed, store: reusedSpillStore{file}, budget: budget}
	spill := func() {
		sc.out.flushes, sc.out.segs, file.buf = sc.out.flushes[:0], sc.out.segs[:0], file.buf[:0]
		for i, rec := range recs {
			if err := sc.add(dest[i], rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, spill); n != 0 {
		t.Errorf("adding and flushing %d pairs allocates %v times", len(recs), n)
	}
	if len(sc.out.flushes) != 1 || sc.out.spilled == 0 {
		t.Fatalf("%d flushes of %d bytes; want the budget in one", len(sc.out.flushes), sc.out.spilled)
	}
}

// spilledRuns writes runs, each a key-sorted list of records of task 0,
// as segments of one spill file and returns their sources and the
// task's row sizes.
func spilledRuns(t *testing.T, runs [][]record, rows int) ([]pairSource, [][]uint32) {
	t.Helper()
	file := &reusedSpillFile{}
	fw := &frameWriter{dst: file}
	srcs := make([]pairSource, len(runs))
	for i, run := range runs {
		seg := spillSegment{off: fw.n, count: len(run), firstKey: run[0].key, lastKey: run[len(run)-1].key}
		for _, rec := range run {
			if err := fw.writeRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.finish(); err != nil {
			t.Fatal(err)
		}
		seg.n = fw.n - seg.off
		srcs[i] = diskSource(file, seg, 0, nil)
	}
	sizes := make([]uint32, rows)
	for i := range sizes {
		sizes[i] = uint32(10 + i%7)
	}
	return srcs, [][]uint32{sizes}
}

// TestSpilledMergeAllocatesNothing: once its scratch has grown, a
// reduce attempt merges spilled segments — one after another when their
// keys are ordered, through the heap when they interleave — without an
// allocation.
func TestSpilledMergeAllocatesNothing(t *testing.T) {
	const rows, perRun = 3000, 4000 // two frames a run
	for _, interleaved := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		runs := make([][]record, 12)
		for i := range runs {
			for j := 0; j < perRun; j++ {
				key := uint64(i*perRun + j)
				if interleaved {
					key = uint64(rng.Intn(1000))
				}
				runs[i] = append(runs[i], record{key: key, row: uint32(rng.Intn(rows))})
			}
			sortBucket(runs[i])
		}
		srcs, sizes := spilledRuns(t, runs, rows)
		fresh := slices.Clone(srcs)
		var m merger
		merged := 0
		merge := func() {
			copy(srcs, fresh)
			if err := m.merge(srcs, sizes, func(rec record, task int) error {
				merged++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(10, merge); n != 0 {
			t.Errorf("interleaved %v: merging %d spilled runs allocates %v times", interleaved, len(runs), n)
		}
		if merged != 11*len(runs)*perRun {
			t.Errorf("interleaved %v: %d records merged in 11 merges of %d", interleaved, merged, len(runs)*perRun)
		}
	}
}
