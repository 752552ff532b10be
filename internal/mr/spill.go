package mr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
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
// sort order of the in-memory path, and because the pair codec
// (relation.AppendTupleRaw) round-trips values bit-identically,
// dictionary code slots included.

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
// bytes; the engine falls back to plain temp files when
// Config.Spill is nil.
type SpillStore interface {
	CreateSpillFile() (SpillFile, error)
}

// ---- Default temp-file store ------------------------------------------

// TempSpillStore is the engine's fallback SpillStore: one plain file
// per spill in a private temp directory, removed on Close.
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

// ---- Pair codec -------------------------------------------------------

// Spilled pair layout: u64 key (LE), u8 tag, tuple in the raw
// self-describing layout (relation.AppendTupleRaw), which preserves
// interned-string code slots so EncodedSize — and with it every
// modeled byte metric — is unchanged by a disk round trip.

func appendPair(dst []byte, p pair) []byte {
	dst = append(binary.LittleEndian.AppendUint64(dst, p.key), p.tag)
	return relation.AppendTupleRaw(dst, p.tuple)
}

// decodePair decodes the pair at the front of a verified frame payload
// and returns it, measured, with the rest of the payload.
func decodePair(b []byte) (pair, []byte, error) {
	if len(b) < 9 {
		return pair{}, nil, io.ErrUnexpectedEOF
	}
	t, rest, err := relation.DecodeTupleRaw(b[9:])
	return pair{key: binary.LittleEndian.Uint64(b), tag: b[8], size: uint32(t.EncodedSize()), tuple: t}, rest, err
}

// ---- Checksummed frames -----------------------------------------------

// Spilled segments are written as a sequence of frames: a u32 payload
// length and u32 CRC32 (IEEE) header followed by ~spillFrameSize bytes
// of encoded pairs; a pair never spans frames. Readers verify every
// frame before decoding a byte of it, fail over to replica re-reads on
// mismatch, and only surface a (retryable) error when every replica
// disagrees with the checksum — the integrity half of the
// fault-tolerance contract. Frame boundaries are a pure function of
// the pair sequence, so the segment bytes — and SpillBytes — stay
// deterministic.

const (
	spillFrameSize   = 32 << 10
	spillFrameHeader = 8
	// spillFrameSlack is how far past a full frame a reader's first read
	// reaches. A frame closes on the pair that takes it to spillFrameSize,
	// so it overshoots by that pair less a byte; only a frame whose last
	// pair is longer than the slack needs a second read for its tail.
	spillFrameSlack = 1 << 10
)

// frameWriter appends pairs to the open frame and emits each frame with
// its length+CRC header to dst.
type frameWriter struct {
	dst    io.Writer
	buf    []byte // the open frame's payload
	frames int
}

func (fw *frameWriter) writePair(p pair) error {
	fw.buf = appendPair(fw.buf, p)
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
	buckets  [][]pair
	frame    []byte // frame buffer, reused from flush to flush
	buffered int64  // accounted bytes currently buffered
	peak     int64  // high-water mark of buffered
	flushes  []spillFlush
	spilled  int64 // total bytes written to the store
}

func newTaskSpiller(store SpillStore, nRed int, budget int64) *taskSpiller {
	return &taskSpiller{store: store, budget: budget, buckets: make([][]pair, nRed)}
}

// add buffers one routed pair, flushing first when the budget is
// exhausted. Flushing before (not after) appending keeps the buffer at
// most one pair over budget.
func (ts *taskSpiller) add(r int, p pair) error {
	b := p.realBytes()
	if ts.buffered > 0 && ts.buffered+b > ts.budget {
		if err := ts.flush(); err != nil {
			return err
		}
	}
	ts.buckets[r] = append(ts.buckets[r], p)
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
		for _, p := range b {
			if err := fw.writePair(p); err != nil {
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

// pairSource is one key-sorted run feeding a reducer's merge: an
// in-memory bucket or a spilled segment. Sources expose their key
// bounds so the merge can take the sequential fast path when the
// task-order concatenation is already globally sorted.
//
// Reading never mutates the run: a retried or speculative reduce
// attempt re-reads the same committed bucket or segment, so the engine
// releases buckets only once every attempt of the reducer has joined.
type pairSource struct {
	// Exactly one of bucket/seg is set.
	bucket []pair
	file   SpillFile
	seg    spillSegment
	mult   float64 // producing task's volume multiplier

	// Integrity context for disk sources: ft carries the quarantine
	// counters and the replica budget, task addresses the producing
	// map task for fault targeting.
	ft   *faultRuntime
	task int

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

func memSource(bucket []pair, mult float64) *pairSource {
	return &pairSource{bucket: bucket, mult: mult}
}

func diskSource(file SpillFile, seg spillSegment, mult float64, ft *faultRuntime, task int, spare *[]byte) *pairSource {
	return &pairSource{file: file, seg: seg, mult: mult, ft: ft, task: task, spare: spare}
}

func (s *pairSource) count() int {
	if s.bucket != nil {
		return len(s.bucket)
	}
	return s.seg.count
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

// next returns the run's next pair; disk sources decode from
// checksum-verified frames loaded one at a time.
func (s *pairSource) next() (pair, error) {
	if s.bucket != nil {
		p := s.bucket[s.pos]
		s.pos++
		if s.pos == len(s.bucket) {
			s.pos = -1
		}
		return p, nil
	}
	if len(s.rest) == 0 {
		if err := s.loadFrame(); err != nil {
			return pair{}, fmt.Errorf("mr: read spilled pair: %w", err)
		}
	}
	p, rest, err := decodePair(s.rest)
	if err != nil {
		return pair{}, fmt.Errorf("mr: read spilled pair: %w", err)
	}
	s.rest = rest
	s.pos++
	if s.pos == s.seg.count {
		*s.spare, s.frame, s.rest = s.frame, nil, nil // hand the read buffer on
		s.pos = -1
	}
	return p, nil
}

// loadFrame reads and verifies the segment's next frame: one read takes
// the header and the payload, unless the payload runs past the slack
// and its tail takes a second. A checksum mismatch (real corruption or
// an injected one) is counted and the payload re-read up to the replica
// budget; only when every replica fails verification does the frame
// surface a retryable error that fails — and re-runs — the whole reduce
// attempt.
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
	if n <= 0 || s.frOff+spillFrameHeader+n > end {
		return retryable(fmt.Errorf("spill frame header corrupt at offset %d (len %d)", s.frOff, n))
	}
	if total := spillFrameHeader + n; total > got {
		s.frame = slices.Grow(s.frame, int(total-got))[:total]
		if _, err := s.file.ReadAt(s.frame[got:], s.frOff+got); err != nil {
			return err
		}
	}
	payload := s.frame[spillFrameHeader : spillFrameHeader+n]
	if s.ft != nil && s.ft.inj.corruptSpill(s.task) {
		payload[0] ^= 0xFF // injected bit rot, caught below
	}
	maxReads := 1
	if s.ft != nil {
		maxReads = s.ft.replicas
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

func (s *pairSource) drained() bool { return s.pos == -1 || s.count() == 0 }

// mergeSources streams the k-way merge of key-sorted sources (ordered
// by (task, flush) ordinal) to emit, in (key, source ordinal) order —
// the same global order the in-memory engine's stable sort produced.
// Memory held is one pair per live source.
func mergeSources(srcs []*pairSource, emit func(pair, *pairSource) error) error {
	live := srcs[:0]
	for _, s := range srcs {
		if s.count() > 0 {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	// Fast path: concatenation in source order is already globally
	// ordered (boundary ties are fine — source order is the desired
	// order for equal keys).
	ordered := true
	for i := 1; i < len(live); i++ {
		if live[i].firstKey() < live[i-1].lastKey() {
			ordered = false
			break
		}
	}
	if ordered {
		for _, s := range live {
			for !s.drained() {
				p, err := s.next()
				if err != nil {
					return err
				}
				if err := emit(p, s); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Binary min-heap of source ordinals keyed by (head key, ordinal).
	heads := make([]pair, len(live))
	for i, s := range live {
		p, err := s.next()
		if err != nil {
			return err
		}
		heads[i] = p
	}
	heap := make([]int, len(live))
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
		s := live[b]
		if err := emit(heads[b], s); err != nil {
			return err
		}
		if s.drained() {
			heads[b] = pair{}
			size--
			heap[0] = heap[size]
		} else {
			p, err := s.next()
			if err != nil {
				return err
			}
			heads[b] = p
		}
		siftDown(0, size)
	}
	return nil
}
