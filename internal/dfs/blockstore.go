package dfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/mr"
	"repro/internal/obs"
)

// slotSize is the unit a BlockStore's backing file is allocated in: a
// file's bytes fill one slot after another, and a released file's slots
// serve the next files written. It sizes the write buffers and the
// longest single disk read.
const slotSize = 64 << 10

// freeSlotBufs bounds a store's list of idle write buffers: half a
// megabyte at most.
const freeSlotBufs = 8

var errClosed = errors.New("dfs: block store closed")

// BlockStore is the real (non-modeled) storage substrate of the
// package: write-once, then sealed files kept in the fixed-size slots of
// one backing file. A read of a sealed file reads exactly the bytes it
// asks for from the backing file, with one disk read per slot they
// span, and holds nothing in memory past the call.
//
// It implements mr.SpillStore, and has one user: an engine run with
// Config.SpillBudgetBytes set writes its sorted shuffle runs here, as
// records naming their rows, and reducers stream-merge them back, each
// run's segment in one read. Job inputs never come from here — they are
// always materialized relations. The store checks no bytes itself: the
// spill frames it holds carry their own CRCs, which the engine verifies
// and re-reads on a mismatch. All methods are safe for concurrent use.
type BlockStore struct {
	mu     sync.Mutex
	dir    string
	owned  bool     // store created dir and removes it on Close
	blocks *os.File // the backing file, in slots of slotSize bytes
	nextID int
	closed bool

	slots     int64    // slots the backing file has grown to
	freeSlots []int64  // released slots, reused before the file grows
	slotBufs  [][]byte // idle slotSize write buffers

	o     *obs.Obs
	reads atomic.Int64 // disk reads of the backing file
}

// NewBlockStore opens a block store rooted at dir (created as a
// temporary directory and removed on Close when dir is empty), holding
// its files in one backing file named "blocks" there.
//
// The store keeps no cache, so cacheBudgetBytes bounds nothing and is
// only checked to be non-negative; it stays for callers written against
// the page-cached store this one replaced.
func NewBlockStore(dir string, cacheBudgetBytes int64) (*BlockStore, error) {
	if cacheBudgetBytes < 0 {
		return nil, fmt.Errorf("dfs: cache budget must be >= 0")
	}
	owned := dir == ""
	if owned {
		d, err := os.MkdirTemp("", "dfs-blocks-*")
		if err != nil {
			return nil, err
		}
		dir = d
	}
	f, err := os.OpenFile(filepath.Join(dir, "blocks"), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		if owned {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("dfs: block store: %w", err)
	}
	return &BlockStore{dir: dir, owned: owned, blocks: f}, nil
}

// AttachObs routes the store's counters to o: dfs.disk_reads, one per
// read of the backing file, and dfs.read_bytes, the bytes those reads
// asked for. nil detaches.
func (s *BlockStore) AttachObs(o *obs.Obs) {
	s.mu.Lock()
	s.o = o
	s.mu.Unlock()
}

// IntegrityStats reports (0, 0): the store verifies no bytes and fails
// over no read. Spilled bytes carry the spill frames' CRCs, whose
// failures and replica re-reads mr.Metrics counts as ChecksumFailures
// and FailoverReads. It stays for callers of the page-checked store
// this one replaced.
func (s *BlockStore) IntegrityStats() (checksumFailures, failoverReads int64) {
	return 0, 0
}

// CreateSpillFile implements mr.SpillStore: a new write-once file in
// the store. It touches no disk; the file's bytes reach the backing file
// a slot at a time.
func (s *BlockStore) CreateSpillFile() (mr.SpillFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	s.nextID++
	return &blockFile{store: s, id: s.nextID - 1}, nil
}

// CacheStats reports (0, reads, 0): with no cache there are no hits and
// no resident bytes, and every read of the backing file counts as a
// miss. It stays for callers of the page-cached store this one
// replaced.
func (s *BlockStore) CacheStats() (hits, misses, residentBytes int64) {
	return 0, s.reads.Load(), 0
}

// Close closes and removes the backing file — and, if the store owns
// its directory, the directory. Files still live read and write nothing
// afterwards; releasing them is a no-op.
func (s *BlockStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.slotBufs, s.freeSlots = nil, nil
	s.mu.Unlock()
	err := s.blocks.Close()
	if s.owned {
		return errors.Join(err, os.RemoveAll(s.dir))
	}
	return errors.Join(err, os.Remove(s.blocks.Name()))
}

// slotBuf takes an idle write buffer, or makes one. Caller holds s.mu.
func (s *BlockStore) slotBuf() []byte {
	if n := len(s.slotBufs); n > 0 {
		buf := s.slotBufs[n-1]
		s.slotBufs = s.slotBufs[:n-1]
		return buf
	}
	return make([]byte, 0, slotSize)
}

// putSlotBuf keeps a write buffer for the next writer, up to
// freeSlotBufs of them. Caller holds s.mu.
func (s *BlockStore) putSlotBuf(buf []byte) {
	if !s.closed && len(s.slotBufs) < freeSlotBufs {
		s.slotBufs = append(s.slotBufs, buf[:0])
	}
}

// allocSlot hands out a released slot, or grows the backing file by one.
func (s *BlockStore) allocSlot() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot, nil
	}
	s.slots++
	return s.slots - 1, nil
}

// blockFile is one write-once file in a BlockStore: a list of slots of
// the backing file, filled in order through a slot-sized write buffer.
type blockFile struct {
	store    *BlockStore
	id       int
	buf      []byte  // write buffer: the bytes of the slot being filled
	slots    []int64 // the backing-file slot of each slotSize run of bytes
	size     int64
	sealed   bool
	released bool // guarded by store.mu
}

func (b *blockFile) Write(p []byte) (int, error) {
	if b.sealed {
		return 0, fmt.Errorf("dfs: write to sealed block file")
	}
	n := 0
	for n < len(p) {
		if b.buf == nil {
			b.store.mu.Lock()
			b.buf = b.store.slotBuf()
			b.store.mu.Unlock()
		}
		q := p[n:min(len(p), n+slotSize-len(b.buf))]
		b.buf = append(b.buf, q...)
		n += len(q)
		b.size += int64(len(q))
		if len(b.buf) == slotSize {
			if err := b.flushSlot(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// flushSlot writes the write buffer into a slot of its own.
func (b *blockFile) flushSlot() error {
	slot, err := b.store.allocSlot()
	if err != nil {
		return err
	}
	b.slots = append(b.slots, slot) // Release returns it even if the write fails
	if _, err := b.store.blocks.WriteAt(b.buf, slot*slotSize); err != nil {
		return fmt.Errorf("dfs: write block file %d: %w", b.id, err)
	}
	b.buf = b.buf[:0]
	return nil
}

func (b *blockFile) Seal() error {
	if b.sealed {
		return nil
	}
	if len(b.buf) > 0 { // the partial last slot
		if err := b.flushSlot(); err != nil {
			return err
		}
	}
	b.returnBuf()
	b.sealed = true
	return nil
}

// returnBuf hands the write buffer back to the store.
func (b *blockFile) returnBuf() {
	if b.buf != nil {
		b.store.mu.Lock()
		b.store.putSlotBuf(b.buf)
		b.store.mu.Unlock()
		b.buf = nil
	}
}

// ReadAt reads [off, off+len(p)) of the sealed file — cut at its end,
// with io.EOF — straight from the backing file, one disk read per slot
// the range spans.
func (b *blockFile) ReadAt(p []byte, off int64) (int, error) {
	if !b.sealed {
		return 0, fmt.Errorf("dfs: read from unsealed block file")
	}
	if off < 0 || off >= b.size {
		return 0, fmt.Errorf("dfs: read at %d outside sealed file of %d bytes", off, b.size)
	}
	s := b.store
	s.mu.Lock()
	closed, released, o := s.closed, b.released, s.o
	s.mu.Unlock()
	if closed {
		return 0, errClosed
	}
	if released {
		return 0, fmt.Errorf("dfs: read from released block file %d", b.id)
	}
	end := min(off+int64(len(p)), b.size)
	for pos := off; pos < end; {
		slot := pos / slotSize
		next := min((slot+1)*slotSize, end)
		s.reads.Add(1)
		o.Counter("dfs.disk_reads").Add(1)
		o.Counter("dfs.read_bytes").Add(next - pos)
		if _, err := s.blocks.ReadAt(p[pos-off:next-off], b.slots[slot]*slotSize+pos%slotSize); err != nil {
			return int(pos - off), err
		}
		pos = next
	}
	if n := int(end - off); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// Release returns the file's slots to the store, so the backing file
// stays at the live files' high-water mark.
func (b *blockFile) Release() error {
	b.returnBuf()
	s := b.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.released {
		return nil
	}
	b.released = true
	if !s.closed {
		s.freeSlots = append(s.freeSlots, b.slots...)
	}
	return nil
}
