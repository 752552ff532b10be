package mr

import (
	"runtime"
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
// mid-merge leaves part of a key run in its buffers; the retry, which
// takes the same buffers, must reduce the run from its first pair.
// Every row has one key and a 64-byte budget spills each map task many
// times, so the reducer merges many runs; one run's frame reads back
// corrupt from every replica, failing the first attempt after it has
// buffered the runs before it.
func TestRetriedReducerStartsOnCleanScratch(t *testing.T) {
	vals := make([]int64, 400)
	in := intsRelation("in", vals...)
	store, err := NewTempSpillStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rot := &rottingSpillStore{TempSpillStore: store, from: 3, to: 3 + Replication}
	cfg := smallConfig()
	cfg.MaxParallelWorkers = 1
	cfg.SpillBudgetBytes = 64
	cfg.Spill = rot
	res := mustRun(t, cfg, countJob(in, 1))
	if got := res.Output.Tuples[0][1].Int64(); res.Rows != 1 || got != int64(len(vals)) {
		t.Errorf("%d rows, the key counted %d times; want 1 row counting %d", res.Rows, got, len(vals))
	}
	if m := res.Metrics; m.ChecksumFailures != Replication || m.ReduceAttempts < 2 {
		t.Errorf("%d checksum failures over %d reduce attempts; want %d failures failing an attempt",
			m.ChecksumFailures, m.ReduceAttempts, Replication)
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
