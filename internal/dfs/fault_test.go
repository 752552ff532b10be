package dfs

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
)

// flipStore serves a BlockStore's files, and flips a byte of the backing
// file under the first frame a reducer reads: back again once that read
// has returned, or for good when persistent.
type flipStore struct {
	*BlockStore
	persistent bool
	once       sync.Once
}

func (s *flipStore) CreateSpillFile() (mr.SpillFile, error) {
	f, err := s.BlockStore.CreateSpillFile()
	if err != nil {
		return nil, err
	}
	return &flipFile{blockFile: f.(*blockFile), store: s}, nil
}

type flipFile struct {
	*blockFile
	store *flipStore
}

func (f *flipFile) ReadAt(p []byte, off int64) (int, error) {
	at := int64(-1)
	f.store.once.Do(func() {
		// A reader's first read starts at a frame: this is its payload's
		// first byte.
		pos := off + 8
		at = f.slots[pos/slotSize]*slotSize + pos%slotSize
		flipByte(f.store.blocks, at)
	})
	n, err := f.blockFile.ReadAt(p, off)
	if at >= 0 && !f.store.persistent {
		flipByte(f.store.blocks, at)
	}
	return n, err
}

// flipByte inverts the backing file's byte at off.
func flipByte(blocks *os.File, off int64) {
	var b [1]byte
	if _, err := blocks.ReadAt(b[:], off); err != nil {
		panic(err)
	}
	b[0] ^= 0xFF
	if _, err := blocks.WriteAt(b[:], off); err != nil {
		panic(err)
	}
}

// spilledFKRun runs fkJob through a flipStore over a fresh BlockStore.
func spilledFKRun(t *testing.T, job *mr.Job, persistent bool) (*mr.Result, error) {
	t.Helper()
	store, err := NewBlockStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := mr.DefaultConfig()
	cfg.SpillBudgetBytes = 4 << 10
	cfg.Spill = &flipStore{BlockStore: store, persistent: persistent}
	return mr.Run(context.Background(), cfg, job)
}

// TestFlippedByteCaughtByFrameChecksum: a byte flipped in the backing
// file under a sealed run, for one read, is caught by the spill frame's
// CRC and absorbed by one replica re-read: the rows are the in-memory
// run's.
func TestFlippedByteCaughtByFrameChecksum(t *testing.T) {
	job := fkJob(t, 3000, 12)
	base, err := mr.Run(context.Background(), mr.DefaultConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spilledFKRun(t, job, false)
	if err != nil {
		t.Fatalf("a transient flip failed the job: %v", err)
	}
	if m := res.Metrics; m.ChecksumFailures != 1 || m.FailoverReads != 1 {
		t.Errorf("%d checksum failures, %d failover reads; want one of each", m.ChecksumFailures, m.FailoverReads)
	}
	if relation.ContentHash(res.Output) != relation.ContentHash(base.Output) {
		t.Error("the job returned other rows than the in-memory run")
	}
}

// TestPersistentFlipFailsTheJob: a byte flipped in the backing file for
// good fails every replica read of its frame, so every reduce attempt
// of its reducer fails and the job returns the checksum error — never a
// row decoded from the bad bytes.
func TestPersistentFlipFailsTheJob(t *testing.T) {
	res, err := spilledFKRun(t, fkJob(t, 3000, 12), true)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Run = %v, %v; want the checksum mismatch", res, err)
	}
}
