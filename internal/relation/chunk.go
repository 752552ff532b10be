package relation

import (
	"fmt"
	"io"
	"math"
)

// Columnar block relations. A Chunk is a bounded run of rows stored
// struct-of-arrays: one typed payload array per column (int64 for
// int/time, float64 for float, string plus a dictionary-code-slot
// array for string columns) and a per-column "no fast payload" bitmap
// covering NULLs and the rare row whose dynamic kind differs from the
// column's declared kind (kept exactly in a sparse exception map, so a
// chunk round-trips any tuple a row-oriented Relation can hold).
//
// Chunks are the format of two things, not an input mode of the engine:
// the dfs block store stores and pages relations as chunk frames
// (chunkcodec.go serializes them without materializing rows), and the
// join evaluator's key-column cache packs a reduce group into one so
// the key-extraction helpers (AppendIntKeys and friends) read the
// payload arrays directly instead of re-boxing a Value per row.
// Row-oriented call sites read a chunk through Chunk.Row.
//
// DefaultChunkRows is the default chunk granularity: small enough that
// one decoded chunk is a negligible memory commitment, large enough to
// amortise per-chunk overheads in scans.
const DefaultChunkRows = 1024

// colVec is one column of a Chunk. Payload arrays are row-indexed
// (dense, zero-valued at skipped rows) so columnar scans need no rank
// computation; skip marks rows without a fast payload.
type colVec struct {
	kind Kind
	skip bitmap
	// ints holds int/time payloads; for string columns it holds the
	// value's dictionary code slot (code+1, 0 = not interned), exactly
	// the integer payload Value carries internally.
	ints   []int64
	floats []float64
	strs   []string
	// exc maps row → exact Value for rows whose dynamic kind differs
	// from the declared column kind (skip bit also set). Nil when the
	// column is well-typed — the overwhelmingly common case.
	exc map[int]Value
}

// bitmap is a plain little-endian bit set.
type bitmap []uint64

func (b bitmap) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitmap) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// any reports whether any bit is set.
func (b bitmap) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Chunk is a columnar block of up to a few thousand rows sharing one
// schema. Chunks are immutable once built (see ChunkBuilder).
type Chunk struct {
	schema *Schema
	n      int
	cols   []colVec
	bytes  int64 // sum of Value.EncodedSize over all rows
}

// Rows returns the number of rows in the chunk.
func (c *Chunk) Rows() int { return c.n }

// EncodedBytes returns the raw (pre-multiplier) encoded byte size of
// the chunk's rows — the same quantity Relation.EncodedSize charges
// for the equivalent []Tuple.
func (c *Chunk) EncodedBytes() int64 { return c.bytes }

// Schema returns the chunk's schema.
func (c *Chunk) Schema() *Schema { return c.schema }

// Value reconstructs the value at (row, col). The reconstruction is
// exact: kind, payload and dictionary code slot round-trip
// bit-identically with the Value that was appended.
func (c *Chunk) Value(row, col int) Value {
	cv := &c.cols[col]
	if cv.skip.get(row) {
		if cv.exc != nil {
			if v, ok := cv.exc[row]; ok {
				return v
			}
		}
		return Null()
	}
	switch cv.kind {
	case KindInt:
		return Int(cv.ints[row])
	case KindTime:
		return TimeUnix(cv.ints[row])
	case KindFloat:
		return Float(cv.floats[row])
	case KindString:
		if slot := cv.ints[row]; slot > 0 {
			return InternedStr(cv.strs[row], slot-1)
		}
		return Str(cv.strs[row])
	default:
		return Null()
	}
}

// Row materialises row i as a fresh Tuple.
func (c *Chunk) Row(i int) Tuple {
	return c.AppendRow(make(Tuple, 0, len(c.cols)), i)
}

// AppendRow appends row i's values to dst and returns it — the
// cursor-view primitive for row-oriented call sites that manage their
// own buffers.
func (c *Chunk) AppendRow(dst Tuple, i int) Tuple {
	for ci := range c.cols {
		dst = append(dst, c.Value(i, ci))
	}
	return dst
}

// AppendIntKeys appends the integer-mode normalized sort key
// (SortKeyInt semantics) of column col, shifted by off, for every row,
// reading the int64 payload array directly. The column must be
// declared int or time; rows without a fast payload fall back to the
// exact per-value extractor.
func (c *Chunk) AppendIntKeys(col int, off float64, dst []int64) []int64 {
	cv := &c.cols[col]
	if cv.kind == KindInt && off != math.Trunc(off) {
		// Value.Add promotes int + fractional offset to float and
		// Int64 truncates the sum; times truncate the offset instead
		// and stay on the integer path below.
		for i := 0; i < c.n; i++ {
			if cv.skip.get(i) {
				dst = append(dst, SortKeyInt(c.Value(i, col), off))
				continue
			}
			dst = append(dst, int64(float64(cv.ints[i])+off))
		}
		return dst
	}
	ioff := int64(off)
	for i := 0; i < c.n; i++ {
		if cv.skip.get(i) {
			dst = append(dst, SortKeyInt(c.Value(i, col), off))
			continue
		}
		dst = append(dst, cv.ints[i]+ioff)
	}
	return dst
}

// AppendFloatKeys appends the float-mode normalized sort key
// (SortKeyFloat semantics) of column col shifted by off for every row,
// computing the order-preserving bit remap straight from the payload
// arrays.
func (c *Chunk) AppendFloatKeys(col int, off float64, dst []int64) []int64 {
	cv := &c.cols[col]
	for i := 0; i < c.n; i++ {
		if cv.skip.get(i) {
			dst = append(dst, SortKeyFloat(c.Value(i, col), off))
			continue
		}
		var f float64
		switch cv.kind {
		case KindFloat:
			f = cv.floats[i] + off
		case KindTime:
			// Value.Add truncates the offset for times unconditionally.
			f = float64(cv.ints[i] + int64(off))
		default: // int payload: Add keeps integer arithmetic for integral offsets
			if off == math.Trunc(off) {
				f = float64(cv.ints[i] + int64(off))
			} else {
				f = float64(cv.ints[i]) + off
			}
		}
		dst = append(dst, floatKeyBits(f))
	}
	return dst
}

// AppendDictKeys appends the dictionary-mode normalized sort key of
// string column col for every row, against reference dictionary ref.
// direct marks a column whose values are interned against ref itself:
// its keys come straight from the embedded code slots; otherwise every
// row probes ref by string (Dict.ProbeKey).
func (c *Chunk) AppendDictKeys(col int, ref *Dict, direct bool, dst []int64) []int64 {
	cv := &c.cols[col]
	for i := 0; i < c.n; i++ {
		if cv.skip.get(i) {
			v := c.Value(i, col)
			if v.IsNull() {
				dst = append(dst, NullSortKey)
				continue
			}
			if direct {
				if code, ok := v.DictCode(); ok {
					dst = append(dst, CodeKey(code))
					continue
				}
			}
			dst = append(dst, ref.ProbeKey(v.Str()))
			continue
		}
		if direct {
			if slot := cv.ints[i]; slot > 0 {
				dst = append(dst, CodeKey(slot-1))
				continue
			}
		}
		dst = append(dst, ref.ProbeKey(cv.strs[i]))
	}
	return dst
}

// ChunkBuilder accumulates rows into a Chunk.
type ChunkBuilder struct {
	c *Chunk
}

// NewChunkBuilder starts an empty chunk over the schema with capacity
// for capHint rows.
func NewChunkBuilder(schema *Schema, capHint int) *ChunkBuilder {
	if capHint <= 0 {
		capHint = DefaultChunkRows
	}
	c := &Chunk{schema: schema, cols: make([]colVec, schema.Len())}
	for i := range c.cols {
		c.cols[i].kind = schema.Column(i).Kind
	}
	b := &ChunkBuilder{c: c}
	b.reserve(capHint)
	return b
}

func (b *ChunkBuilder) reserve(n int) {
	for i := range b.c.cols {
		cv := &b.c.cols[i]
		switch cv.kind {
		case KindInt, KindTime:
			cv.ints = make([]int64, 0, n)
		case KindFloat:
			cv.floats = make([]float64, 0, n)
		case KindString:
			cv.ints = make([]int64, 0, n)
			cv.strs = make([]string, 0, n)
		}
	}
}

// Rows returns the number of rows appended so far.
func (b *ChunkBuilder) Rows() int { return b.c.n }

// EncodedBytes returns the raw encoded size of the rows appended so far.
func (b *ChunkBuilder) EncodedBytes() int64 { return b.c.bytes }

// Append adds one row. The tuple's arity must match the schema.
func (b *ChunkBuilder) Append(t Tuple) error {
	c := b.c
	if len(t) != len(c.cols) {
		return fmt.Errorf("relation: chunk append: arity %d != schema arity %d", len(t), len(c.cols))
	}
	row := c.n
	for ci, v := range t {
		cv := &c.cols[ci]
		fast := !v.IsNull() && v.kind == cv.kind
		if fast {
			switch cv.kind {
			case KindInt, KindTime:
				cv.ints = append(cv.ints, v.i)
			case KindFloat:
				cv.floats = append(cv.floats, v.f)
			case KindString:
				cv.ints = append(cv.ints, v.i) // code slot
				cv.strs = append(cv.strs, v.s)
			default:
				fast = false
			}
		}
		if !fast {
			// Keep the payload arrays dense (row-indexed) with zero
			// values at skipped rows.
			switch cv.kind {
			case KindInt, KindTime:
				cv.ints = append(cv.ints, 0)
			case KindFloat:
				cv.floats = append(cv.floats, 0)
			case KindString:
				cv.ints = append(cv.ints, 0)
				cv.strs = append(cv.strs, "")
			}
			markSkip(cv, row)
			if !v.IsNull() {
				if cv.exc == nil {
					cv.exc = make(map[int]Value)
				}
				cv.exc[row] = v
			}
		}
		c.bytes += int64(v.EncodedSize())
	}
	c.bytes += tupleFrameBytes
	c.n++
	return nil
}

// tupleFrameBytes is the per-row framing overhead Tuple.EncodedSize
// charges; chunk byte accounting includes it so EncodedBytes over a
// chunk equals the sum of Tuple.EncodedSize over its rows.
const tupleFrameBytes = 4

// markSkip sets the skip bit for row, growing the bitmap as needed.
func markSkip(cv *colVec, row int) {
	for len(cv.skip) <= row/64 {
		cv.skip = append(cv.skip, 0)
	}
	cv.skip.set(row)
}

// Build finalises and returns the chunk; the builder must not be used
// afterwards.
func (b *ChunkBuilder) Build() *Chunk {
	c := b.c
	// Normalise the skip bitmaps to the full row count so codec and
	// accessors can index without bounds checks beyond the slice.
	words := (c.n + 63) / 64
	for i := range c.cols {
		for len(c.cols[i].skip) < words {
			c.cols[i].skip = append(c.cols[i].skip, 0)
		}
	}
	b.c = nil
	return c
}

// PackChunk unboxes an already-materialised tuple slice into one
// columnar chunk — used by consumers that hold a candidate list (e.g.
// the reducer-side key-column cache) and want vectorized column access
// without per-tuple re-boxing on every read. The tuples must conform
// to the schema.
func PackChunk(schema *Schema, tuples []Tuple) *Chunk {
	b := NewChunkBuilder(schema, len(tuples))
	for _, t := range tuples {
		if err := b.Append(t); err != nil {
			panic(err) // arity checked by the caller against the schema
		}
	}
	return b.Build()
}

// ChunksOf splits the relation into columnar chunks of at most
// rowsPerChunk rows (DefaultChunkRows when <= 0).
func ChunksOf(r *Relation, rowsPerChunk int) []*Chunk {
	if rowsPerChunk <= 0 {
		rowsPerChunk = DefaultChunkRows
	}
	var chunks []*Chunk
	for lo := 0; lo < len(r.Tuples); lo += rowsPerChunk {
		hi := lo + rowsPerChunk
		if hi > len(r.Tuples) {
			hi = len(r.Tuples)
		}
		b := NewChunkBuilder(r.Schema, hi-lo)
		for _, t := range r.Tuples[lo:hi] {
			if err := b.Append(t); err != nil {
				panic(err) // tuples validated at Relation.Append time
			}
		}
		chunks = append(chunks, b.Build())
	}
	return chunks
}

// ChunkIterator yields chunks in order; io.EOF marks the end of the
// stream.
type ChunkIterator interface {
	NextChunk() (*Chunk, error)
}

// ChunkStream returns an iterator over the relation's tuples in
// columnar chunks of rowsPerChunk rows. The chunks are built lazily,
// one ahead of consumption, so a consumer that releases chunks as it
// goes holds at most one chunk of the relation in columnar form.
func (r *Relation) ChunkStream(rowsPerChunk int) ChunkIterator {
	if rowsPerChunk <= 0 {
		rowsPerChunk = DefaultChunkRows
	}
	return &lazyChunks{r: r, per: rowsPerChunk}
}

type lazyChunks struct {
	r   *Relation
	per int
	lo  int
}

func (l *lazyChunks) NextChunk() (*Chunk, error) {
	if l.lo >= len(l.r.Tuples) {
		return nil, io.EOF
	}
	hi := l.lo + l.per
	if hi > len(l.r.Tuples) {
		hi = len(l.r.Tuples)
	}
	b := NewChunkBuilder(l.r.Schema, hi-l.lo)
	for _, t := range l.r.Tuples[l.lo:hi] {
		if err := b.Append(t); err != nil {
			return nil, err
		}
	}
	l.lo = hi
	return b.Build(), nil
}
