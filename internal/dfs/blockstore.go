package dfs

import (
	"container/list"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/mr"
	"repro/internal/obs"
)

// DefaultPageSize is the page-cache and checksum granularity of a
// BlockStore: reads are served in pages of this size, cached under the
// store's byte budget, and every page carries its own CRC.
const DefaultPageSize = 4 << 10

// slotSize is the unit a BlockStore's backing file is allocated in: a
// file's bytes fill one slot after another, and a released file's slots
// serve the next files written. It is a whole number of pages, so no
// page spans two slots, and it sizes the write buffers and the longest
// single disk read.
const slotSize = 64 << 10

const pagesPerSlot = slotSize / DefaultPageSize

// freeSlotBufs bounds a store's list of idle slot buffers, the write
// buffers of files being written and the run buffers of page fills:
// half a megabyte at most.
const freeSlotBufs = 8

// pageReplicas is how many total disk reads a checksum-failed page fill
// may attempt: the dfs.replication default of Table 1.
const pageReplicas = 3

var errClosed = errors.New("dfs: block store closed")

// BlockStore is the real (non-modeled) storage substrate of the
// package: write-once, then sealed files kept in the fixed-size slots of
// one backing file, whose reads are served through an in-memory LRU
// page cache with a byte budget, so it holds bytes on disk and bounds
// how many of them sit in memory.
//
// It implements mr.SpillStore, and has one user: an engine run with
// Config.SpillBudgetBytes set writes its sorted shuffle runs here, in
// the raw tuple codec, and reducers stream-merge them back through the
// page cache. Job inputs never come from here — they are always
// materialized relations.
//
// The cache is transparent: every read returns exactly the sealed
// bytes regardless of budget, page size, eviction order, slot reuse or
// concurrency. Only CacheStats observes the difference. All methods
// are safe for concurrent use.
type BlockStore struct {
	mu     sync.Mutex
	dir    string
	owned  bool     // store created dir and removes it on Close
	blocks *os.File // the backing file, in slots of slotSize bytes
	nextID int      // file ids are never reused, so cached pages never alias
	closed bool

	slots     int64    // slots the backing file has grown to
	freeSlots []int64  // released slots, reused before the file grows
	slotBufs  [][]byte // idle slotSize buffers

	// The page cache. Every cached page has a DefaultPageSize buffer,
	// and that is what it counts against the budget; once the budget is
	// full, the least recently used page's entry and buffer take the
	// next page cached.
	cacheBudget int64
	cacheBytes  int64
	lru         *list.List // of *cachePage; front = most recent
	pages       map[pageKey]*list.Element
	hits        int64
	misses      int64

	// Integrity: every sealed page carries a CRC32 computed at write
	// time and verified on every cache fill; a mismatch triggers up to
	// pageReplicas total disk reads (failover to a surviving replica)
	// before the read fails. Counters are quarantine telemetry.
	o                *obs.Obs
	checksumFailures atomic.Int64
	failoverReads    atomic.Int64
	// corruptFill is a test hook invoked after each disk read of a page
	// fill, free to mutate data in place — the way tests model transient
	// (attempt-scoped) versus persistent corruption. nil in production.
	corruptFill func(file int, page int64, attempt int, data []byte)
}

type pageKey struct {
	file int
	page int64
}

type cachePage struct {
	key  pageKey
	data []byte
}

// NewBlockStore opens a block store rooted at dir (created as a
// temporary directory and removed on Close when dir is empty), holding
// its files in one backing file named "blocks" there.
// cacheBudgetBytes bounds the resident page cache; below one page it
// disables caching entirely — every read goes to disk — which is the
// cheapest way to force fully out-of-core execution in tests.
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
	return &BlockStore{
		dir:         dir,
		owned:       owned,
		blocks:      f,
		cacheBudget: cacheBudgetBytes,
		lru:         list.New(),
		pages:       make(map[pageKey]*list.Element),
	}, nil
}

// AttachObs routes the store's counters to o: dfs.disk_reads, one per
// read of the backing file, and the quarantine counters
// dfs.checksum_failures and dfs.failover_reads. nil detaches.
func (s *BlockStore) AttachObs(o *obs.Obs) {
	s.mu.Lock()
	s.o = o
	s.mu.Unlock()
}

// IntegrityStats reports detected page corruptions and the successful
// replica re-reads that absorbed them.
func (s *BlockStore) IntegrityStats() (checksumFailures, failoverReads int64) {
	return s.checksumFailures.Load(), s.failoverReads.Load()
}

// CreateSpillFile implements mr.SpillStore: a new write-once file in
// the store whose post-Seal reads are page-cached. It touches no disk;
// the file's bytes reach the backing file a slot at a time.
func (s *BlockStore) CreateSpillFile() (mr.SpillFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	s.nextID++
	return &blockFile{store: s, id: s.nextID - 1}, nil
}

// CacheStats reports page-cache activity: hits, misses, and currently
// resident bytes. Diagnostic only — it never affects results.
func (s *BlockStore) CacheStats() (hits, misses, residentBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.cacheBytes
}

// Close drops the cache and closes and removes the backing file — and,
// if the store owns its directory, the directory. Files still live read
// and write nothing afterwards; releasing them is a no-op.
func (s *BlockStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.lru.Init()
	s.pages = make(map[pageKey]*list.Element)
	s.cacheBytes = 0
	s.slotBufs, s.freeSlots = nil, nil
	s.mu.Unlock()
	err := s.blocks.Close()
	if s.owned {
		return errors.Join(err, os.RemoveAll(s.dir))
	}
	return errors.Join(err, os.Remove(s.blocks.Name()))
}

// caching reports whether the budget holds at least one page.
func (s *BlockStore) caching() bool { return s.cacheBudget >= DefaultPageSize }

// readThrough copies [off, off+len(p)) of the sealed file into p via
// the page cache. Cached pages are copied under s.mu — the least
// recently used page's buffer is overwritten by the next page cached,
// so no reader may hold one outside the lock.
// Each run of missing pages within one slot is filled with one pread
// into a slot buffer private to this reader, verified page by page, and
// only then copied out and cached.
func (s *BlockStore) readThrough(b *blockFile, off int64, p []byte) (int, error) {
	size := b.size
	if off < 0 || off >= size {
		return 0, fmt.Errorf("dfs: read at %d outside sealed file of %d bytes", off, size)
	}
	end := min(off+int64(len(p)), size)
	dst := p[:end-off]
	for pos := off; pos < end; {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return int(pos - off), errClosed
		}
		if b.released {
			s.mu.Unlock()
			return int(pos - off), fmt.Errorf("dfs: read from released block file %d", b.id)
		}
		for pos < end {
			el, ok := s.pages[pageKey{b.id, pos / DefaultPageSize}]
			if !ok {
				break
			}
			s.hits++
			s.lru.MoveToFront(el)
			pos += int64(copy(dst[pos-off:], el.Value.(*cachePage).data[pos%DefaultPageSize:]))
		}
		if pos == end {
			s.mu.Unlock()
			break
		}

		// The run: this missing page and the missing pages after it, up
		// to the request's last page or the slot's end.
		first := pos / DefaultPageSize
		lim := min((first/pagesPerSlot+1)*pagesPerSlot, (end-1)/DefaultPageSize+1)
		k := first + 1
		for k < lim && !s.cached(b.id, k) {
			k++
		}
		s.misses += k - first
		runOff := first * DefaultPageSize
		run := s.slotBuf()[:min(k*DefaultPageSize, size)-runOff]
		o, hook := s.o, s.corruptFill
		s.mu.Unlock()

		err := s.fillRun(b, first, run, o, hook)
		if err == nil {
			pos += int64(copy(dst[pos-off:], run[pos-runOff:]))
		}
		s.mu.Lock()
		if err == nil && s.caching() && !s.closed && !b.released {
			s.cacheRun(b.id, first, run)
		}
		s.putSlotBuf(run)
		s.mu.Unlock()
		if err != nil {
			return int(pos - off), err
		}
	}
	if len(dst) < len(p) {
		return len(dst), io.EOF
	}
	return len(p), nil
}

// cached reports whether the page is resident. Caller holds s.mu.
func (s *BlockStore) cached(file int, page int64) bool {
	_, ok := s.pages[pageKey{file, page}]
	return ok
}

// fillRun fills run — pages first, first+1, ... of b, all in one slot —
// with one pread, then verifies each page against its sealed CRC,
// re-reading just a failed page while replicas remain.
func (s *BlockStore) fillRun(b *blockFile, first int64, run []byte, o *obs.Obs,
	hook func(file int, page int64, attempt int, data []byte)) error {
	at := b.slots[first/pagesPerSlot]*slotSize + first%pagesPerSlot*DefaultPageSize
	if err := s.pread(run, at, o); err != nil {
		return err
	}
	for i := int64(0); len(run) > 0; i++ {
		data := run[:min(DefaultPageSize, len(run))]
		run = run[len(data):]
		if err := s.verifyPage(b, first+i, data, at+i*DefaultPageSize, o, hook); err != nil {
			return err
		}
	}
	return nil
}

// verifyPage checks a page just read at backing-file offset at against
// its sealed CRC, failing over to replica re-reads while any remain.
func (s *BlockStore) verifyPage(b *blockFile, page int64, data []byte, at int64, o *obs.Obs,
	hook func(file int, page int64, attempt int, data []byte)) error {
	for attempt := 1; ; attempt++ {
		if hook != nil {
			hook(b.id, page, attempt, data)
		}
		if crc32.ChecksumIEEE(data) == b.crcs[page] {
			return nil
		}
		// Corrupted page: count it, then fail over to a replica
		// re-read while any remain.
		s.checksumFailures.Add(1)
		o.Counter("dfs.checksum_failures").Add(1)
		if attempt >= pageReplicas {
			return fmt.Errorf("dfs: file %d page %d: checksum mismatch on all %d replicas",
				b.id, page, pageReplicas)
		}
		s.failoverReads.Add(1)
		o.Counter("dfs.failover_reads").Add(1)
		if err := s.pread(data, at, o); err != nil {
			return err
		}
	}
}

func (s *BlockStore) pread(p []byte, at int64, o *obs.Obs) error {
	o.Counter("dfs.disk_reads").Add(1)
	_, err := s.blocks.ReadAt(p, at)
	return err
}

// cacheRun caches the pages of a verified run that are not resident
// yet — a racing reader may have filled one too. Within budget a page
// gets an entry of its own; beyond it, it takes over the least recently
// used page's. Caller holds s.mu.
func (s *BlockStore) cacheRun(file int, first int64, run []byte) {
	for page := first; len(run) > 0; page++ {
		src := run[:min(DefaultPageSize, len(run))]
		run = run[len(src):]
		k := pageKey{file, page}
		if _, ok := s.pages[k]; ok {
			continue
		}
		var el *list.Element
		if s.cacheBytes+DefaultPageSize <= s.cacheBudget {
			el = s.lru.PushFront(&cachePage{data: make([]byte, 0, DefaultPageSize)})
			s.cacheBytes += DefaultPageSize
		} else {
			el = s.lru.Back()
			delete(s.pages, el.Value.(*cachePage).key)
			s.lru.MoveToFront(el)
		}
		pg := el.Value.(*cachePage)
		pg.key, pg.data = k, append(pg.data[:0], src...)
		s.pages[k] = el
	}
}

// slotBuf takes an idle slot buffer, or makes one. Caller holds s.mu.
func (s *BlockStore) slotBuf() []byte {
	if n := len(s.slotBufs); n > 0 {
		buf := s.slotBufs[n-1]
		s.slotBufs = s.slotBufs[:n-1]
		return buf[:cap(buf)]
	}
	return make([]byte, slotSize)
}

// putSlotBuf keeps a slot buffer for the next writer or fill, up to
// freeSlotBufs of them. Caller holds s.mu.
func (s *BlockStore) putSlotBuf(buf []byte) {
	if !s.closed && len(s.slotBufs) < freeSlotBufs {
		s.slotBufs = append(s.slotBufs, buf)
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
// Writes accumulate a CRC32 per page as the bytes stream through, so
// sealing costs nothing extra and every post-seal page fill can be
// verified.
type blockFile struct {
	store    *BlockStore
	id       int
	buf      []byte  // write buffer: the bytes of the slot being filled
	slots    []int64 // the backing-file slot of each slotSize run of bytes
	size     int64
	sealed   bool
	released bool // guarded by store.mu

	crcs   []uint32 // per-page CRC32; the last entry covers a partial page
	cur    uint32   // running CRC of the page being written
	curLen int      // bytes of the current page seen so far
}

func (b *blockFile) Write(p []byte) (int, error) {
	if b.sealed {
		return 0, fmt.Errorf("dfs: write to sealed block file")
	}
	n := 0
	for n < len(p) {
		if b.buf == nil {
			b.store.mu.Lock()
			b.buf = b.store.slotBuf()[:0]
			b.store.mu.Unlock()
		}
		q := p[n:min(len(p), n+slotSize-len(b.buf))]
		b.buf = append(b.buf, q...)
		b.checksum(q)
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

// checksum folds q into the running page CRCs.
func (b *blockFile) checksum(q []byte) {
	for len(q) > 0 {
		take := min(DefaultPageSize-b.curLen, len(q))
		b.cur = crc32.Update(b.cur, crc32.IEEETable, q[:take])
		b.curLen += take
		q = q[take:]
		if b.curLen == DefaultPageSize {
			b.crcs = append(b.crcs, b.cur)
			b.cur, b.curLen = 0, 0
		}
	}
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
	if b.curLen > 0 { // finalize the trailing partial page
		b.crcs = append(b.crcs, b.cur)
		b.cur, b.curLen = 0, 0
	}
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

func (b *blockFile) ReadAt(p []byte, off int64) (int, error) {
	if !b.sealed {
		return 0, fmt.Errorf("dfs: read from unsealed block file")
	}
	return b.store.readThrough(b, off, p)
}

// Release drops the file's cached pages, looked up by key so the cost is
// the file's page count, not the cache's, then returns its slots to the
// store, so the backing file stays at the live files' high-water mark.
func (b *blockFile) Release() error {
	b.returnBuf()
	s := b.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.released {
		return nil
	}
	b.released = true
	if s.closed {
		return nil // Close dropped the cache and the slots
	}
	for page := int64(0); page < int64(len(b.crcs)) && s.caching(); page++ {
		k := pageKey{b.id, page}
		if el, ok := s.pages[k]; ok {
			s.lru.Remove(el)
			delete(s.pages, k)
			s.cacheBytes -= DefaultPageSize
		}
	}
	s.freeSlots = append(s.freeSlots, b.slots...)
	return nil
}
