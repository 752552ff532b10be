package mr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Out-of-core shuffle: when Config.SpillBudgetBytes is set, a map task
// buffers at most that many accounted bytes of emitted pairs before
// sorting its per-reducer buckets and writing them to a SpillFile as
// key-sorted runs (Hadoop's io.sort.mb spill, made real). Reducers
// then k-way merge the spilled runs straight from disk through
// streaming cursors instead of holding every bucket live, so the
// engine's resident pair memory is bounded by the budget — while every
// byte-level metric and the output stay bit-identical to the
// in-memory path. See Run for the determinism contract; the spill
// layer preserves it because runs are merged in (key, source ordinal)
// order with sources ordered (task, flush), exactly the global stable
// sort order of the in-memory path, and because a spilled pair is the
// same record an in-memory bucket holds, naming its row instead of
// carrying its bytes: every value a map function emits is the row it
// was handed, a row of a job input the run holds for its whole length,
// so a reader resolves the record to that very row and hands Reduce the
// slice the in-memory path would have.

// SpillFile is one spill target: append-only while writing, random
// access (io.ReaderAt) after Seal, reclaimed by Release. The engine
// tracks segment offsets itself; implementations only store bytes.
type SpillFile interface {
	io.Writer
	io.ReaderAt // valid after Seal
	// Seal flushes and makes the file readable; no writes may follow.
	Seal() error
	// Release frees the file's storage.
	Release() error
}

// SpillStore creates spill files. Implementations must be safe for
// concurrent use — map tasks spill in parallel. internal/dfs's
// BlockStore implements it with an in-memory page cache over the spill
// bytes; TempSpillStore with plain temp files.
type SpillStore interface {
	CreateSpillFile() (SpillFile, error)
}

// ---- Temp-file store --------------------------------------------------

// TempSpillStore is the plain SpillStore: one file per spill in a
// private temp directory, removed on Close.
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

// ---- Record codec -----------------------------------------------------

// A spilled record is u64 key (LE) | uvarint row, at most maxRecordLen
// bytes. Its size is not written: the reader re-measures the row, and
// its tag is its task's input.
const maxRecordLen = 8 + binary.MaxVarintLen32

func appendRecord(dst []byte, rec record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rec.key)
	return binary.AppendUvarint(dst, uint64(rec.row))
}

// decodeRecord decodes the record at the front of a verified frame
// payload against split, the rows of the map task that wrote it, and
// returns it, measured from its row, with the rest of the payload. A
// row varint that is cut short, longer than it needs to be or past the
// split is an error: checksums vouch for the bytes, not for the writer.
func decodeRecord(b []byte, split []relation.Tuple) (record, []byte, error) {
	if len(b) < 9 {
		return record{}, nil, io.ErrUnexpectedEOF
	}
	row, w := binary.Uvarint(b[8:])
	if w <= 0 || w > 1 && b[7+w] == 0 {
		return record{}, nil, errors.New("malformed row ordinal")
	}
	if row >= uint64(len(split)) {
		return record{}, nil, fmt.Errorf("row %d past its split of %d", row, len(split))
	}
	rec := record{key: binary.LittleEndian.Uint64(b), row: uint32(row), size: uint32(split[row].EncodedSize())}
	return rec, b[8+w:], nil
}

// ---- Checksummed frames -----------------------------------------------

// Spilled segments are written as a sequence of frames: a u32 payload
// length and u32 CRC32 (IEEE) header followed by ~spillFrameSize bytes
// of records; a record never spans frames. Readers verify every
// frame before decoding a byte of it, fail over to replica re-reads on
// mismatch, and only surface a (retryable) error when every replica
// disagrees with the checksum — the integrity half of the
// fault-tolerance contract. Frame boundaries are a pure function of
// the record sequence, so the segment bytes — and SpillBytes — stay
// deterministic.

const (
	spillFrameSize   = 32 << 10
	spillFrameHeader = 8
	// spillFrameSlack is how far past a full frame a reader's read
	// reaches. A frame closes on the record that takes it to
	// spillFrameSize, so it overshoots by less than one record: one read
	// always takes the whole frame.
	spillFrameSlack = maxRecordLen
)

// frameWriter appends records to the open frame and emits each frame
// with its length+CRC header to dst.
type frameWriter struct {
	dst    io.Writer
	buf    []byte // the open frame's payload
	frames int
}

func (fw *frameWriter) writeRecord(rec record) error {
	fw.buf = appendRecord(fw.buf, rec)
	if len(fw.buf) >= spillFrameSize {
		return fw.emit()
	}
	return nil
}

func (fw *frameWriter) emit() error {
	if len(fw.buf) == 0 {
		return nil
	}
	var hdr [spillFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(fw.buf)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(fw.buf))
	if _, err := fw.dst.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.dst.Write(fw.buf); err != nil {
		return err
	}
	fw.frames++
	fw.buf = fw.buf[:0]
	return nil
}

// finish emits the final partial frame.
func (fw *frameWriter) finish() error { return fw.emit() }

// ---- Map-side spiller -------------------------------------------------

// spillSegment locates one reducer's key-sorted run inside a sealed
// spill file.
type spillSegment struct {
	off, n   int64
	count    int
	firstKey uint64
	lastKey  uint64
}

// spillFlush is one sealed spill file holding a segment per reducer
// (empty segments have count 0).
type spillFlush struct {
	file SpillFile
	segs []spillSegment
}

// taskSpiller buffers one map task's per-reducer buckets under the
// byte budget and flushes them to the spill store as sorted runs.
type taskSpiller struct {
	store    SpillStore
	budget   int64
	buckets  [][]record
	frame    []byte // frame buffer, reused from flush to flush
	buffered int64  // accounted bytes currently buffered
	peak     int64  // high-water mark of buffered
	flushes  []spillFlush
	spilled  int64 // total bytes written to the store
}

func newTaskSpiller(store SpillStore, nRed int, budget int64) *taskSpiller {
	return &taskSpiller{store: store, budget: budget, buckets: make([][]record, nRed)}
}

// add buffers one routed pair, flushing first when the budget is
// exhausted. Flushing before (not after) appending keeps the buffer at
// most one pair over budget.
func (ts *taskSpiller) add(r int, rec record) error {
	b := rec.realBytes()
	if ts.buffered > 0 && ts.buffered+b > ts.budget {
		if err := ts.flush(); err != nil {
			return err
		}
	}
	ts.buckets[r] = append(ts.buckets[r], rec)
	ts.buffered += b
	if ts.buffered > ts.peak {
		ts.peak = ts.buffered
	}
	return nil
}

// flush sorts every non-empty bucket and writes one spill file with a
// segment per reducer, then empties the buckets. A file that fails to
// be written is released at once.
func (ts *taskSpiller) flush() (err error) {
	if ts.buffered == 0 {
		return nil
	}
	f, err := ts.store.CreateSpillFile()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Release()
		}
	}()
	cw := &countingWriter{w: f}
	fw := &frameWriter{dst: cw, buf: ts.frame[:0]}
	segs := make([]spillSegment, len(ts.buckets))
	for r, b := range ts.buckets {
		if len(b) == 0 {
			continue
		}
		sortBucket(b)
		seg := spillSegment{off: cw.n, count: len(b), firstKey: b[0].key, lastKey: b[len(b)-1].key}
		for _, rec := range b {
			if err := fw.writeRecord(rec); err != nil {
				return err
			}
		}
		if err := fw.finish(); err != nil {
			return err
		}
		seg.n = cw.n - seg.off
		segs[r] = seg
		ts.buckets[r] = b[:0] // the next flush fills the same capacity
	}
	if err := f.Seal(); err != nil {
		return err
	}
	ts.frame = fw.buf
	ts.flushes = append(ts.flushes, spillFlush{file: f, segs: segs})
	ts.spilled += cw.n
	ts.buffered = 0
	return nil
}

// finish flushes the remaining buffer and drops the buckets, so the task
// retains no pairs in memory; every run is on the store.
func (ts *taskSpiller) finish() error {
	err := ts.flush()
	ts.buckets, ts.frame = nil, nil
	return err
}

// release frees every spill file of the task.
func (ts *taskSpiller) release() {
	for _, fl := range ts.flushes {
		fl.file.Release()
	}
	ts.flushes = nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ---- Reduce-side cursors and streaming merge --------------------------

// pairSource is one key-sorted run of records feeding a reducer's
// merge: an in-memory bucket or a spilled segment. Both kinds yield
// the same records, each naming a row of the source's task's split, and
// the merge's caller resolves them one way for both. Sources expose
// their key bounds so the merge can take the sequential fast path when
// the task-order concatenation is already globally sorted.
//
// Reading never mutates the run: a retried or speculative reduce
// attempt re-reads the same committed bucket or segment, so the engine
// releases buckets only once every attempt of the reducer has joined.
// A record's row is in its task's split, a relation the run holds to
// its end, so every attempt resolves it to the same row.
type pairSource struct {
	// Exactly one of bucket/file is set.
	bucket []record
	file   SpillFile
	seg    spillSegment
	// task is the producing map task: its multiplier prices the run's
	// pairs, a spilled record's row is an ordinal in its split, and
	// injected faults address it.
	task int
	// ft carries a disk source's quarantine counters and replica budget.
	ft *faultRuntime

	// cursor state
	pos   int
	frOff int64  // next unread file offset (frame-aligned)
	frame []byte // the loaded frame, header included
	rest  []byte // its undecoded tail
	// spare is the attempt's idle frame buffer: a drained run leaves its
	// own here for the next run to load into, so a sequential merge reads
	// every run through one buffer.
	spare *[]byte
}

func memSource(bucket []record, task int) pairSource {
	return pairSource{bucket: bucket, task: task}
}

func diskSource(file SpillFile, seg spillSegment, task int, ft *faultRuntime, spare *[]byte) pairSource {
	return pairSource{file: file, seg: seg, task: task, ft: ft, spare: spare}
}

func (s *pairSource) firstKey() uint64 {
	if s.bucket != nil {
		return s.bucket[0].key
	}
	return s.seg.firstKey
}

func (s *pairSource) lastKey() uint64 {
	if s.bucket != nil {
		return s.bucket[len(s.bucket)-1].key
	}
	return s.seg.lastKey
}

// next returns the run's next record; disk sources decode theirs from
// checksum-verified frames loaded one at a time, against their task's
// split in tasks.
func (s *pairSource) next(tasks []mapTask) (record, error) {
	if s.bucket != nil {
		rec := s.bucket[s.pos]
		s.pos++
		if s.pos == len(s.bucket) {
			s.pos = -1
		}
		return rec, nil
	}
	if len(s.rest) == 0 {
		if err := s.loadFrame(); err != nil {
			return record{}, fmt.Errorf("mr: read spilled pair: %w", err)
		}
	}
	rec, rest, err := decodeRecord(s.rest, tasks[s.task].tuples)
	if err != nil {
		return record{}, fmt.Errorf("mr: read spilled pair: %w", err)
	}
	s.rest = rest
	s.pos++
	if s.pos == s.seg.count {
		*s.spare, s.frame, s.rest = s.frame, nil, nil // hand the read buffer on
		s.pos = -1
	}
	return rec, nil
}

// loadFrame reads and verifies the segment's next frame, header and
// payload in one read. A header that promises more than that read took
// is corrupt. A checksum mismatch (real corruption or an injected one)
// is counted and the payload re-read up to the replica budget; only
// when every replica fails verification does the frame surface a
// retryable error that fails — and re-runs — the whole reduce attempt.
func (s *pairSource) loadFrame() error {
	if s.frOff == 0 {
		s.frOff = s.seg.off
	}
	end := s.seg.off + s.seg.n
	if s.frOff+spillFrameHeader > end {
		return fmt.Errorf("spill segment truncated at offset %d", s.frOff)
	}
	if s.frame == nil {
		s.frame, *s.spare = *s.spare, nil
	}
	got := min(end-s.frOff, spillFrameHeader+spillFrameSize+spillFrameSlack)
	if int64(cap(s.frame)) < got {
		s.frame = make([]byte, got)
	}
	s.frame = s.frame[:got]
	if _, err := s.file.ReadAt(s.frame, s.frOff); err != nil {
		return err
	}
	n := int64(binary.LittleEndian.Uint32(s.frame[:4]))
	want := binary.LittleEndian.Uint32(s.frame[4:])
	if n <= 0 || spillFrameHeader+n > got {
		return retryable(fmt.Errorf("spill frame header corrupt at offset %d (len %d)", s.frOff, n))
	}
	payload := s.frame[spillFrameHeader : spillFrameHeader+n]
	if s.ft != nil && s.ft.inj.corruptSpill(s.task) {
		payload[0] ^= 0xFF // injected bit rot, caught below
	}
	maxReads := 1
	if s.ft != nil {
		maxReads = Replication
	}
	for tries := 1; crc32.ChecksumIEEE(payload) != want; tries++ {
		s.ft.checksumFailure()
		if tries >= maxReads {
			return retryable(fmt.Errorf("spill frame checksum mismatch at offset %d after %d replica reads", s.frOff, tries))
		}
		if _, err := s.file.ReadAt(payload, s.frOff+spillFrameHeader); err != nil {
			return err
		}
		s.ft.failoverRead()
	}
	s.frOff += spillFrameHeader + n
	s.rest = payload
	return nil
}

func (s *pairSource) drained() bool { return s.pos == -1 }

// mergeSources streams the k-way merge of non-empty key-sorted sources
// (ordered by (task, flush) ordinal) to emit, with the producing task of
// each record, in (key, source ordinal) order — the same global order
// the in-memory engine's stable sort produced. Spilled records are
// decoded against tasks. Memory held is one record per source.
func mergeSources(srcs []pairSource, tasks []mapTask, emit func(rec record, task int) error) error {
	// Fast path: concatenation in source order is already globally
	// ordered (boundary ties are fine — source order is the desired
	// order for equal keys).
	ordered := true
	for i := 1; i < len(srcs); i++ {
		if srcs[i].firstKey() < srcs[i-1].lastKey() {
			ordered = false
			break
		}
	}
	if ordered {
		for i := range srcs {
			s := &srcs[i]
			for !s.drained() {
				p, err := s.next(tasks)
				if err != nil {
					return err
				}
				if err := emit(p, s.task); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Binary min-heap of source ordinals keyed by (head key, ordinal).
	heads := make([]record, len(srcs))
	for i := range srcs {
		p, err := srcs[i].next(tasks)
		if err != nil {
			return err
		}
		heads[i] = p
	}
	heap := make([]int, len(srcs))
	for i := range heap {
		heap[i] = i
	}
	less := func(a, b int) bool {
		ka, kb := heads[a].key, heads[b].key
		return ka < kb || (ka == kb && a < b)
	}
	var siftDown func(i, size int)
	siftDown = func(i, size int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < size && less(heap[l], heap[small]) {
				small = l
			}
			if r < size && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	size := len(heap)
	for i := size/2 - 1; i >= 0; i-- {
		siftDown(i, size)
	}
	for size > 0 {
		b := heap[0]
		s := &srcs[b]
		if err := emit(heads[b], s.task); err != nil {
			return err
		}
		if s.drained() {
			heads[b] = record{}
			size--
			heap[0] = heap[size]
		} else {
			p, err := s.next(tasks)
			if err != nil {
				return err
			}
			heads[b] = p
		}
		siftDown(0, size)
	}
	return nil
}
