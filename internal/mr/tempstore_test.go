package mr

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// TempSpillStore is the plain SpillStore the package's tests run on:
// one file per spill in a private temp directory, removed on Close.
type TempSpillStore struct {
	dir  string
	mu   sync.Mutex
	n    int
	live atomic.Int64
}

// Live reports the spill files created but not yet released — 0 after
// a Run returns, success or not: the engine discards failed attempts'
// runs immediately and releases committed runs before returning, so a
// nonzero count after Run is a leak. Cancellation-hygiene tests assert
// on it.
func (s *TempSpillStore) Live() int { return int(s.live.Load()) }

// NewTempSpillStore creates a temp-file spill store rooted in dir (""
// = the system temp directory).
func NewTempSpillStore(dir string) (*TempSpillStore, error) {
	d, err := os.MkdirTemp(dir, "mr-spill-*")
	if err != nil {
		return nil, fmt.Errorf("mr: spill store: %w", err)
	}
	return &TempSpillStore{dir: d}, nil
}

// CreateSpillFile opens a fresh spill file.
func (s *TempSpillStore) CreateSpillFile() (SpillFile, error) {
	s.mu.Lock()
	name := fmt.Sprintf("%s/spill-%06d", s.dir, s.n)
	s.n++
	s.mu.Unlock()
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("mr: spill store: %w", err)
	}
	s.live.Add(1)
	return &tempSpillFile{f: f, bw: bufio.NewWriter(f), store: s}, nil
}

// Close removes the store's directory and every remaining file.
func (s *TempSpillStore) Close() error { return os.RemoveAll(s.dir) }

type tempSpillFile struct {
	f     *os.File
	bw    *bufio.Writer
	store *TempSpillStore
}

func (t *tempSpillFile) Write(p []byte) (int, error) { return t.bw.Write(p) }

func (t *tempSpillFile) Seal() error { return t.bw.Flush() }

func (t *tempSpillFile) ReadAt(p []byte, off int64) (int, error) { return t.f.ReadAt(p, off) }

func (t *tempSpillFile) Release() error {
	if t.store != nil {
		t.store.live.Add(-1)
		t.store = nil
	}
	name := t.f.Name()
	if err := t.f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}
