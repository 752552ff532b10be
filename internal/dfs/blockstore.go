package dfs

import (
	"bufio"
	"container/list"
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

// DefaultPageSize is the page-cache granularity of a BlockStore: reads
// are served in pages of this size, cached under the store's byte
// budget.
const DefaultPageSize = 64 << 10

// freePageBufs bounds a store's list of idle page buffers: one each for
// a few concurrent readers, half a megabyte at most.
const freePageBufs = 8

// pageReplicas is how many total disk reads a checksum-failed page fill
// may attempt: the dfs.replication default of Table 1.
const pageReplicas = 3

// BlockStore is the real (non-modeled) storage substrate of the
// package: a directory of append-then-sealed files whose reads are
// served through an in-memory LRU page cache with a byte budget, so it
// holds bytes on disk and bounds how many of them sit in memory.
//
// It implements mr.SpillStore, and has one user: an engine run with
// Config.SpillBudgetBytes set writes its sorted shuffle runs here, in
// the raw tuple codec, and reducers stream-merge them back through the
// page cache. Job inputs never come from here — they are always
// materialized relations.
//
// The cache is transparent: every read returns exactly the sealed
// bytes regardless of budget, page size, eviction order or
// concurrency. Only CacheStats observes the difference. All methods
// are safe for concurrent use.
type BlockStore struct {
	mu     sync.Mutex
	dir    string
	owned  bool // store created dir and removes it on Close
	nextID int
	closed bool

	pageSize    int64
	cacheBudget int64
	cacheBytes  int64
	lru         *list.List // of *cachePage; front = most recent
	pages       map[pageKey]*list.Element
	hits        int64
	misses      int64
	// free holds idle page buffers, what a miss fills instead of
	// allocating (and zeroing) a page of its own. Every buffer has pageSize
	// capacity, and that is what a cached page counts against the budget.
	free [][]byte

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
// temporary directory and removed on Close when dir is empty).
// cacheBudgetBytes bounds the resident page cache; 0 disables caching
// entirely — every read goes to disk — which is the cheapest way to
// force fully out-of-core execution in tests.
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
	return &BlockStore{
		dir:         dir,
		owned:       owned,
		pageSize:    DefaultPageSize,
		cacheBudget: cacheBudgetBytes,
		lru:         list.New(),
		pages:       make(map[pageKey]*list.Element),
	}, nil
}

// AttachObs routes the store's quarantine counters
// (dfs/checksum_failures, dfs/failover_reads) to o. nil detaches.
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
// the store whose post-Seal reads are page-cached.
func (s *BlockStore) CreateSpillFile() (mr.SpillFile, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("dfs: block store closed")
	}
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	f, err := os.OpenFile(filepath.Join(s.dir, fmt.Sprintf("block-%06d", id)),
		os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	return &blockFile{store: s, id: id, f: f, bw: bufio.NewWriterSize(f, 64<<10)}, nil
}

// CacheStats reports page-cache activity: hits, misses, and currently
// resident bytes. Diagnostic only — it never affects results.
func (s *BlockStore) CacheStats() (hits, misses, residentBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.cacheBytes
}

// Close drops the cache and, if the store owns its directory, removes
// it and every stored file.
func (s *BlockStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.lru.Init()
	s.pages = make(map[pageKey]*list.Element)
	s.cacheBytes = 0
	s.free = nil
	dir, owned := s.dir, s.owned
	s.mu.Unlock()
	if owned {
		return os.RemoveAll(dir)
	}
	return nil
}

// readThrough copies [off, off+len(p)) of the sealed file into p via
// the page cache. The caller guarantees the range is within the sealed
// size.
func (s *BlockStore) readThrough(b *blockFile, off int64, p []byte) (int, error) {
	size := b.size
	if off < 0 || off >= size {
		return 0, fmt.Errorf("dfs: read at %d outside sealed file of %d bytes", off, size)
	}
	n := 0
	for n < len(p) && off+int64(n) < size {
		pos := off + int64(n)
		pageIdx := pos / s.pageSize
		c, err := s.copyPage(pageKey{file: b.id, page: pageIdx}, b, pos-pageIdx*s.pageSize, p[n:])
		if err != nil {
			return n, err
		}
		n += c
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// copyPage copies the page's bytes from offset `from` on into dst,
// filling (and checksum-verifying) the page from disk on a miss. Page
// buffers are recycled — an evicted or uncached page's buffer serves the
// next fill, unzeroed, since ReadAt overwrites all of it — so no reader
// may hold one outside the lock: a hit copies under s.mu, a miss copies
// from the buffer it filled before any other reader can reach it.
func (s *BlockStore) copyPage(k pageKey, b *blockFile, from int64, dst []byte) (int, error) {
	pageOff := k.page * s.pageSize
	pageLen := min(s.pageSize, b.size-pageOff)
	s.mu.Lock()
	if el, ok := s.pages[k]; ok {
		s.hits++
		s.lru.MoveToFront(el)
		n := copy(dst, el.Value.(*cachePage).data[from:])
		s.mu.Unlock()
		return n, nil
	}
	s.misses++
	o, hook := s.o, s.corruptFill
	var data []byte
	if n := len(s.free); n > 0 {
		data, s.free = s.free[n-1][:pageLen], s.free[:n-1]
	} else {
		data = make([]byte, pageLen, s.pageSize)
	}
	s.mu.Unlock()

	// Fill outside the lock; a racing reader of the same page just
	// fills it twice, and the second insert finds it already cached.
	err := s.fillPage(k, b, data, pageOff, o, hook)
	n := 0
	if err == nil {
		n = copy(dst, data[from:])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, cached := s.pages[k]; err != nil || cached || s.cacheBudget == 0 || s.closed {
		s.recycle(data)
		return n, err
	}
	s.pages[k] = s.lru.PushFront(&cachePage{key: k, data: data})
	s.cacheBytes += int64(cap(data))
	for s.cacheBytes > s.cacheBudget && s.lru.Back() != nil {
		s.evict(s.lru.Back())
	}
	return n, nil
}

// fillPage reads the page into data and verifies it against the sealed
// CRC, failing over to replica re-reads while any remain.
func (s *BlockStore) fillPage(k pageKey, b *blockFile, data []byte, pageOff int64, o *obs.Obs,
	hook func(file int, page int64, attempt int, data []byte)) error {
	want, verify := b.pageCRC(k.page)
	for attempt := 1; ; attempt++ {
		if _, err := b.f.ReadAt(data, pageOff); err != nil {
			return err
		}
		if hook != nil {
			hook(k.file, k.page, attempt, data)
		}
		if !verify || crc32.ChecksumIEEE(data) == want {
			return nil
		}
		// Corrupted page: count it, then fail over to a replica
		// re-read while any remain.
		s.checksumFailures.Add(1)
		o.Counter("dfs.checksum_failures").Add(1)
		if attempt >= pageReplicas {
			return fmt.Errorf("dfs: file %d page %d: checksum mismatch on all %d replicas",
				k.file, k.page, pageReplicas)
		}
		s.failoverReads.Add(1)
		o.Counter("dfs.failover_reads").Add(1)
	}
}

// evict drops one cached page and recycles its buffer. Caller holds s.mu.
func (s *BlockStore) evict(el *list.Element) {
	pg := el.Value.(*cachePage)
	s.lru.Remove(el)
	delete(s.pages, pg.key)
	s.cacheBytes -= int64(cap(pg.data))
	s.recycle(pg.data)
}

// recycle keeps an idle page buffer for the next fill, up to
// freePageBufs of them. Caller holds s.mu.
func (s *BlockStore) recycle(data []byte) {
	if len(s.free) < freePageBufs {
		s.free = append(s.free, data)
	}
}

// dropFile evicts every cached page of a released file.
func (s *BlockStore) dropFile(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cachePage).key.file == id {
			s.evict(el)
		}
		el = next
	}
}

// blockFile is one write-once file in a BlockStore. Writes accumulate
// a CRC32 per store page as the bytes stream through, so sealing costs
// nothing extra and every post-seal page fill can be verified.
type blockFile struct {
	store  *BlockStore
	id     int
	f      *os.File
	bw     *bufio.Writer
	size   int64
	sealed bool

	crcs   []uint32 // per-page CRC32; the last entry covers a partial page
	cur    uint32   // running CRC of the page being written
	curLen int64    // bytes of the current page seen so far
}

func (b *blockFile) Write(p []byte) (int, error) {
	if b.sealed {
		return 0, fmt.Errorf("dfs: write to sealed block file")
	}
	n, err := b.bw.Write(p)
	for q := p[:n]; len(q) > 0; {
		take := b.store.pageSize - b.curLen
		if take > int64(len(q)) {
			take = int64(len(q))
		}
		b.cur = crc32.Update(b.cur, crc32.IEEETable, q[:take])
		b.curLen += take
		q = q[take:]
		if b.curLen == b.store.pageSize {
			b.crcs = append(b.crcs, b.cur)
			b.cur, b.curLen = 0, 0
		}
	}
	b.size += int64(n)
	return n, err
}

func (b *blockFile) Seal() error {
	if b.sealed {
		return nil
	}
	if err := b.bw.Flush(); err != nil {
		return err
	}
	if b.curLen > 0 { // finalize the trailing partial page
		b.crcs = append(b.crcs, b.cur)
		b.cur, b.curLen = 0, 0
	}
	b.sealed = true
	return nil
}

// pageCRC returns the sealed CRC of page i, when one was recorded.
func (b *blockFile) pageCRC(i int64) (uint32, bool) {
	if i < 0 || i >= int64(len(b.crcs)) {
		return 0, false
	}
	return b.crcs[i], true
}

func (b *blockFile) ReadAt(p []byte, off int64) (int, error) {
	if !b.sealed {
		return 0, fmt.Errorf("dfs: read from unsealed block file")
	}
	return b.store.readThrough(b, off, p)
}

func (b *blockFile) Release() error {
	b.store.dropFile(b.id)
	name := b.f.Name()
	if err := b.f.Close(); err != nil {
		return err
	}
	return os.Remove(name)
}
