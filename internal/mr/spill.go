package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Out-of-core shuffle: a map attempt's output always takes one path —
// its collector, then key-sorted runs — and Config.SpillBudgetBytes
// only decides where the runs live. With a budget, the collector cuts a
// run whenever the next pair would take its accounted bytes past the
// budget, and once more at task end; each run, dealt out by reducer
// into a block reused from flush to flush with every reducer's slice
// sorted, is written to a SpillFile as key-sorted segments (Hadoop's
// io.sort.mb spill, made real). Without one, the task's one run stays
// resident. Reducers k-way merge spilled runs straight from disk
// through streaming cursors, each reading its segment of a file with
// one read of exactly its bytes into a frame buffer carved from the
// attempt's scratch, so the engine's resident pair memory is bounded by
// the budget — while every byte-level metric and the output stay
// bit-identical to a run without one. See Run for the determinism
// contract; the spill layer preserves it because runs are merged in
// (key, source ordinal) order with sources ordered (task, flush),
// exactly the global stable sort order of a resident run per task, and
// because a spilled pair is the same record a resident bucket holds,
// naming its row instead of carrying its bytes: every value a map
// function emits is the row it was handed, a row of a job input the run
// holds for its whole length, so a reader resolves the record to that
// very row, and its size to the one the run measured when it split the
// input, and hands Reduce the slice a resident run would have.

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
// BlockStore implements it over the slots of one backing file.
type SpillStore interface {
	CreateSpillFile() (SpillFile, error)
}

// ---- Record codec -----------------------------------------------------

// A spilled record is u64 key (LE) | uvarint row, at most maxRecordLen
// bytes. Its size is not written: the reader takes it from the sizes
// the run measured, and its tag is its task's input.
const maxRecordLen = 8 + binary.MaxVarintLen32

func appendRecord(dst []byte, rec record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rec.key)
	return binary.AppendUvarint(dst, uint64(rec.row))
}

// decodeRecord decodes the record at the front of a verified frame
// payload against sizes, the EncodedSize of each row of the map task
// that wrote it, and returns it with the rest of the payload. A row
// varint that is cut short, longer than it needs to be or past the
// split is an error: checksums vouch for the bytes, not for the writer.
func decodeRecord(b []byte, sizes []uint32) (record, []byte, error) {
	if len(b) < 9 {
		return record{}, nil, io.ErrUnexpectedEOF
	}
	row, w := binary.Uvarint(b[8:])
	if w <= 0 || w > 1 && b[7+w] == 0 {
		return record{}, nil, errors.New("malformed row ordinal")
	}
	if row >= uint64(len(sizes)) {
		return record{}, nil, fmt.Errorf("row %d past its split of %d", row, len(sizes))
	}
	rec := record{key: binary.LittleEndian.Uint64(b), row: uint32(row), size: sizes[row]}
	return rec, b[8+w:], nil
}

// ---- Checksummed frames -----------------------------------------------

// Spilled segments are written as a sequence of frames: a u32 payload
// length and u32 CRC32 (IEEE) header followed by ~spillFrameSize bytes
// of records; a record never spans frames. Readers verify every
// frame before decoding a byte of it, fail over to replica re-reads on
// mismatch, and only surface a (retryable) error when every replica
// disagrees with the checksum — the integrity half of the
// fault-tolerance contract, and the only check spilled bytes get.
// Frame boundaries are a pure function of the record sequence, so the
// segment bytes — and SpillBytes — stay deterministic.

const (
	spillFrameSize   = 32 << 10
	spillFrameHeader = 8
	// spillFrameSlack is how far past a full frame a reader's read
	// reaches. A frame closes on the record that takes it to
	// spillFrameSize, so it overshoots by less than one record: one read
	// always takes the whole frame.
	spillFrameSlack = maxRecordLen
	// maxFrameRead is the longest read a frame takes.
	maxFrameRead = spillFrameHeader + spillFrameSize + spillFrameSlack
)

// frameWriter appends records to the open frame, behind room for its
// header, and writes each frame to dst in one Write once the header is
// filled in. n counts the bytes written.
type frameWriter struct {
	dst    io.Writer
	buf    []byte // the open frame: header room, then payload
	frames int
	n      int64
}

func (fw *frameWriter) writeRecord(rec record) error {
	if len(fw.buf) == 0 {
		fw.buf = append(fw.buf, make([]byte, spillFrameHeader)...)
	}
	fw.buf = appendRecord(fw.buf, rec)
	if len(fw.buf)-spillFrameHeader >= spillFrameSize {
		return fw.emit()
	}
	return nil
}

func (fw *frameWriter) emit() error {
	if len(fw.buf) == 0 {
		return nil
	}
	payload := fw.buf[spillFrameHeader:]
	binary.LittleEndian.PutUint32(fw.buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fw.buf[4:], crc32.ChecksumIEEE(payload))
	n, err := fw.dst.Write(fw.buf)
	fw.n += int64(n)
	if err != nil {
		return err
	}
	fw.frames++
	fw.buf = fw.buf[:0]
	return nil
}

// finish emits the final partial frame.
func (fw *frameWriter) finish() error { return fw.emit() }

// ---- Map-side spill runs ----------------------------------------------

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

// spill writes one sorted run, dealt into the collector's block, to a
// new spill file with a segment per reducer, and adds the file to the
// attempt's runs. The frame buffer is the collector's, and the segments
// are windows of one array the attempt's flushes share, so once the
// run's collectors have grown a spill allocates only what it commits. A
// file that fails to be written is released at once.
func (sc *mapScratch) spill(buckets [][]record) (err error) {
	f, err := sc.store.CreateSpillFile()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Release()
		}
	}()
	out, nRed := &sc.out, len(buckets)
	at := len(out.segs)
	out.segs = slices.Grow(out.segs, nRed)[:at+nRed]
	segs := out.segs[at : at+nRed : at+nRed]
	clear(segs)
	fw := frameWriter{dst: f, buf: sc.frame[:0]}
	for r, b := range buckets {
		if len(b) == 0 {
			continue
		}
		seg := spillSegment{off: fw.n, count: len(b), firstKey: b[0].key, lastKey: b[len(b)-1].key}
		for _, rec := range b {
			if err := fw.writeRecord(rec); err != nil {
				return err
			}
		}
		if err := fw.finish(); err != nil {
			return err
		}
		seg.n = fw.n - seg.off
		segs[r] = seg
	}
	sc.frame = fw.buf
	if err := f.Seal(); err != nil {
		return err
	}
	out.flushes = append(out.flushes, spillFlush{file: f, segs: segs})
	out.spilled += fw.n
	return nil
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
	frame []byte // the frame buffer the merge carved; the loaded frame, header included
	rest  []byte // its undecoded tail
}

func memSource(bucket []record, task int) pairSource {
	return pairSource{bucket: bucket, task: task}
}

func diskSource(file SpillFile, seg spillSegment, task int, ft *faultRuntime) pairSource {
	return pairSource{file: file, seg: seg, task: task, ft: ft}
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

// frameLen is the longest read a disk source takes: its whole segment,
// or one full frame of a longer one.
func (s *pairSource) frameLen() int { return int(min(s.seg.n, maxFrameRead)) }

// next returns the run's next record; disk sources decode theirs from
// checksum-verified frames loaded one at a time, against their task's
// row sizes, sizes[task].
func (s *pairSource) next(sizes [][]uint32) (record, error) {
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
	rec, rest, err := decodeRecord(s.rest, sizes[s.task])
	if err != nil {
		return record{}, fmt.Errorf("mr: read spilled pair: %w", err)
	}
	s.rest = rest
	s.pos++
	if s.pos == s.seg.count {
		s.frame, s.rest = nil, nil
		s.pos = -1
	}
	return rec, nil
}

// loadFrame reads and verifies the segment's next frame, header and
// payload in one read, into the source's frame buffer. A header that
// promises more than that read took is corrupt. A checksum mismatch
// (real corruption or an injected one) is counted and the payload
// re-read up to the replica budget; only when every replica fails
// verification does the frame surface a retryable error that fails —
// and re-runs — the whole reduce attempt.
func (s *pairSource) loadFrame() error {
	if s.frOff == 0 {
		s.frOff = s.seg.off
	}
	end := s.seg.off + s.seg.n
	if s.frOff+spillFrameHeader > end {
		return fmt.Errorf("spill segment truncated at offset %d", s.frOff)
	}
	got := min(end-s.frOff, maxFrameRead)
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

// merger is a reduce attempt's merge state — the frame buffers of its
// spilled runs and the heap over its runs' heads — kept in the
// attempt's scratch, so a merge allocates only to grow it past what the
// run's earlier attempts needed.
type merger struct {
	frames []byte
	heads  []record
	heap   []int
}

// carve hands every disk source its frame buffer out of m.frames: one
// buffer all of them share when they are read one after another
// (shared), a piece of its own each when they are merged. Every buffer
// is carved anew, so no source reads into one an earlier attempt or
// source left behind.
func (m *merger) carve(srcs []pairSource, shared bool) {
	need := 0
	for i := range srcs {
		if srcs[i].file == nil {
			continue
		}
		if n := srcs[i].frameLen(); shared {
			need = max(need, n)
		} else {
			need += n
		}
	}
	if cap(m.frames) < need {
		m.frames = make([]byte, need)
	}
	buf := m.frames[:need]
	for i := range srcs {
		s := &srcs[i]
		if s.file == nil {
			continue
		}
		n := s.frameLen()
		s.frame = buf[:n:n]
		if !shared {
			buf = buf[n:]
		}
	}
}

// merge streams the k-way merge of non-empty key-sorted sources
// (ordered by (task, flush) ordinal) to emit, with the producing task of
// each record, in (key, source ordinal) order — the same global order
// the in-memory engine's stable sort produced. Spilled records are
// decoded against their task's row sizes, sizes[task]. Memory held is
// one record and one frame buffer per source.
func (m *merger) merge(srcs []pairSource, sizes [][]uint32, emit func(rec record, task int) error) error {
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
	m.carve(srcs, ordered)
	if ordered {
		for i := range srcs {
			s := &srcs[i]
			for !s.drained() {
				p, err := s.next(sizes)
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
	k := len(srcs)
	heads := slices.Grow(m.heads[:0], k)[:k]
	heap := slices.Grow(m.heap[:0], k)[:k]
	m.heads, m.heap = heads, heap
	for i := range srcs {
		p, err := srcs[i].next(sizes)
		if err != nil {
			return err
		}
		heads[i], heap[i] = p, i
	}
	size := k
	for i := size/2 - 1; i >= 0; i-- {
		siftDown(heap[:size], heads, i)
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
			p, err := s.next(sizes)
			if err != nil {
				return err
			}
			heads[b] = p
		}
		siftDown(heap[:size], heads, 0)
	}
	return nil
}

// siftDown restores the heap order of source ordinals below position i,
// ordered by (head key, ordinal).
func siftDown(heap []int, heads []record, i int) {
	less := func(a, b int) bool {
		ka, kb := heads[a].key, heads[b].key
		return ka < kb || (ka == kb && a < b)
	}
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(heap) && less(heap[l], heap[small]) {
			small = l
		}
		if r < len(heap) && less(heap[r], heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		heap[i], heap[small] = heap[small], heap[i]
		i = small
	}
}
