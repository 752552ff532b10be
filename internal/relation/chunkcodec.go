package relation

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The chunk frame is the block store's on-disk unit (dfs.ChunkedFile):
// one self-delimiting columnar encoding of a Chunk, written and read
// standalone by EncodeChunk / DecodeChunk against a schema and optional
// per-column dictionaries the caller holds:
//
//	u32 nrows | per column:
//	  u8 hasSkip | [ceil(nrows/64) × u64 skip bitmap] |
//	  per row with clear skip bit (fast payload):
//	    int/time → u64 payload | float → u64 bits |
//	    string → u8 tag: 0 plain (u32 len, bytes)
//	                     1 dict slot (uvarint slot; string restored
//	                       from the column dictionary)
//	                     2 interned inline (uvarint slot, u32 len,
//	                       bytes; for codes not resolvable through the
//	                       column dictionary) |
//	  uvarint nexc | nexc × (uvarint row, raw value)
//
// Rows with a set skip bit and no exception entry are NULL; exception
// entries hold the exact Value for rows whose dynamic kind differs
// from the declared column kind. Every layout choice preserves Value
// bit-identity — dictionary code slots included — so EncodedSize, sort
// keys and content hashes are unchanged by a round trip.
//
// The raw value layout (AppendValueRaw/ReadValueRaw) is a
// self-describing per-value encoding that needs no dictionary context:
// strings always carry their code slot and inline bytes. The mr spill
// path uses it to write shuffle pairs to disk and reload them
// bit-identically.

// AppendValueRaw appends v in the self-describing raw layout: kind byte,
// then an 8-byte payload for numeric kinds, or uvarint(code slot) +
// u32 length + bytes for strings. Unlike the relation codecs it
// preserves interned-string code slots without dictionary context, so
// a reloaded value is bit-identical to the original (EncodedSize
// included).
func AppendValueRaw(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt, KindTime:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(v.f))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(v.i)) // code slot (0 = not interned)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// ReadValueRaw reads a value written by AppendValueRaw.
func ReadValueRaw(br *bufio.Reader) (Value, error) {
	kb, err := br.ReadByte()
	if err != nil {
		return Null(), err
	}
	var scratch [8]byte
	switch Kind(kb) {
	case KindNull:
		return Null(), nil
	case KindInt, KindTime:
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return Null(), err
		}
		n := int64(binary.LittleEndian.Uint64(scratch[:8]))
		if Kind(kb) == KindTime {
			return TimeUnix(n), nil
		}
		return Int(n), nil
	case KindFloat:
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return Null(), err
		}
		return Float(floatFromBits(binary.LittleEndian.Uint64(scratch[:8]))), nil
	case KindString:
		slot, err := binary.ReadUvarint(br)
		if err != nil {
			return Null(), err
		}
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return Null(), err
		}
		n := binary.LittleEndian.Uint32(scratch[:4])
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Null(), err
		}
		return Value{kind: KindString, s: string(buf), i: int64(slot)}, nil
	default:
		return Null(), fmt.Errorf("relation: read raw value: unknown kind byte %d", kb)
	}
}

// AppendTupleRaw appends a tuple as uvarint(arity) followed by its
// values in the raw layout.
func AppendTupleRaw(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValueRaw(dst, v)
	}
	return dst
}

// DecodeTupleRaw decodes the tuple AppendTupleRaw wrote at the front of
// b and returns it with the rest of b. It is the spill path's reader:
// the frame payload is already in memory, so values are sliced out of it
// with no reader in between. It never reads past b; truncated or
// malformed bytes are an error.
func DecodeTupleRaw(b []byte) (Tuple, []byte, error) {
	arity, w := binary.Uvarint(b)
	// A value is at least its kind byte, so an arity beyond the bytes
	// left is corrupt; checked before it sizes an allocation.
	if w <= 0 || arity > uint64(len(b)-w) {
		return nil, nil, errRawTuple
	}
	b = b[w:]
	t := make(Tuple, arity)
	for i := range t {
		if len(b) == 0 {
			return nil, nil, errRawTuple
		}
		kind := Kind(b[0])
		b = b[1:]
		switch {
		case kind == KindNull:
		case kind == KindString:
			slot, w := binary.Uvarint(b)
			if w <= 0 || len(b)-w < 4 {
				return nil, nil, errRawTuple
			}
			n := binary.LittleEndian.Uint32(b[w:])
			if b = b[w+4:]; uint64(n) > uint64(len(b)) {
				return nil, nil, errRawTuple
			}
			t[i], b = Value{kind: KindString, s: string(b[:n]), i: int64(slot)}, b[n:]
		case kind <= KindTime && len(b) >= 8: // int, float, time: 8 payload bytes
			u := binary.LittleEndian.Uint64(b)
			if t[i] = (Value{kind: kind, i: int64(u)}); kind == KindFloat {
				t[i] = Float(floatFromBits(u))
			}
			b = b[8:]
		default:
			return nil, nil, errRawTuple
		}
	}
	return t, b, nil
}

var errRawTuple = errors.New("relation: raw tuple truncated or malformed")

// EncodeChunk writes c as one standalone chunk frame. dicts provides
// the dictionary context for slot-only string encoding and may be nil.
func EncodeChunk(w io.Writer, c *Chunk, dicts []*Dict) error {
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := writeU32(uint32(c.n)); err != nil {
		return err
	}
	for ci := range c.cols {
		cv := &c.cols[ci]
		hasSkip := cv.skip.any()
		b := byte(0)
		if hasSkip {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
		if hasSkip {
			for _, w := range cv.skip {
				if err := writeU64(w); err != nil {
					return err
				}
			}
		}
		var d *Dict
		if ci < len(dicts) {
			d = dicts[ci]
		}
		for i := 0; i < c.n; i++ {
			if hasSkip && cv.skip.get(i) {
				continue
			}
			switch cv.kind {
			case KindInt, KindTime:
				if err := writeU64(uint64(cv.ints[i])); err != nil {
					return err
				}
			case KindFloat:
				if err := writeU64(floatBits(cv.floats[i])); err != nil {
					return err
				}
			case KindString:
				slot, s := cv.ints[i], cv.strs[i]
				switch {
				case slot > 0 && d != nil && slot <= int64(d.Len()) && d.At(slot-1) == s:
					if err := bw.WriteByte(1); err != nil {
						return err
					}
					if err := writeUvarint(uint64(slot)); err != nil {
						return err
					}
				case slot > 0:
					// Interned against something other than the column
					// dictionary: keep slot and bytes inline.
					if err := bw.WriteByte(2); err != nil {
						return err
					}
					if err := writeUvarint(uint64(slot)); err != nil {
						return err
					}
					if err := writeU32(uint32(len(s))); err != nil {
						return err
					}
					if _, err := bw.WriteString(s); err != nil {
						return err
					}
				default:
					if err := bw.WriteByte(0); err != nil {
						return err
					}
					if err := writeU32(uint32(len(s))); err != nil {
						return err
					}
					if _, err := bw.WriteString(s); err != nil {
						return err
					}
				}
			}
		}
		if err := writeUvarint(uint64(len(cv.exc))); err != nil {
			return err
		}
		// Exception rows in row order for determinism.
		if len(cv.exc) > 0 {
			rows := make([]int, 0, len(cv.exc))
			for r := range cv.exc {
				rows = append(rows, r)
			}
			sortInts(rows)
			for _, r := range rows {
				if err := writeUvarint(uint64(r)); err != nil {
					return err
				}
				if _, err := bw.Write(AppendValueRaw(scratch[:0], cv.exc[r])); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// DecodeChunk reads one chunk frame written by EncodeChunk, against
// the given schema and dictionaries.
func DecodeChunk(r io.Reader, schema *Schema, dicts []*Dict) (*Chunk, error) {
	br := bufio.NewReader(r)
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	nrows32, err := readU32()
	if err != nil {
		return nil, err
	}
	n := int(nrows32)
	if n == 0 {
		return nil, fmt.Errorf("relation: decode chunk: empty frame")
	}
	c := &Chunk{schema: schema, n: n, cols: make([]colVec, schema.Len())}
	c.bytes = int64(n) * tupleFrameBytes
	words := (n + 63) / 64
	for ci := range c.cols {
		cv := &c.cols[ci]
		cv.kind = schema.Column(ci).Kind
		hasSkip, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		cv.skip = make(bitmap, words)
		if hasSkip != 0 {
			for w := 0; w < words; w++ {
				u, err := readU64()
				if err != nil {
					return nil, err
				}
				cv.skip[w] = u
			}
		}
		var d *Dict
		if ci < len(dicts) {
			d = dicts[ci]
		}
		switch cv.kind {
		case KindInt, KindTime:
			cv.ints = make([]int64, n)
		case KindFloat:
			cv.floats = make([]float64, n)
		case KindString:
			cv.ints = make([]int64, n)
			cv.strs = make([]string, n)
		}
		for i := 0; i < n; i++ {
			if cv.skip.get(i) {
				c.bytes++ // NULL (or exception, adjusted below)
				continue
			}
			switch cv.kind {
			case KindInt, KindTime:
				u, err := readU64()
				if err != nil {
					return nil, err
				}
				cv.ints[i] = int64(u)
				c.bytes += 9
			case KindFloat:
				u, err := readU64()
				if err != nil {
					return nil, err
				}
				cv.floats[i] = floatFromBits(u)
				c.bytes += 9
			case KindString:
				tag, err := br.ReadByte()
				if err != nil {
					return nil, err
				}
				switch tag {
				case 1:
					slot, err := binary.ReadUvarint(br)
					if err != nil {
						return nil, err
					}
					if d == nil || slot == 0 || slot > uint64(d.Len()) {
						return nil, fmt.Errorf("relation: decode chunk: dict slot %d unresolvable (col %d)", slot, ci)
					}
					cv.ints[i] = int64(slot)
					cv.strs[i] = d.At(int64(slot) - 1)
					c.bytes += int64(1 + uvarintLen(slot))
				case 2:
					slot, err := binary.ReadUvarint(br)
					if err != nil {
						return nil, err
					}
					slen, err := readU32()
					if err != nil {
						return nil, err
					}
					buf := make([]byte, slen)
					if _, err := io.ReadFull(br, buf); err != nil {
						return nil, err
					}
					cv.ints[i] = int64(slot)
					cv.strs[i] = string(buf)
					c.bytes += int64(1 + uvarintLen(slot))
				case 0:
					slen, err := readU32()
					if err != nil {
						return nil, err
					}
					buf := make([]byte, slen)
					if _, err := io.ReadFull(br, buf); err != nil {
						return nil, err
					}
					cv.strs[i] = string(buf)
					c.bytes += int64(1 + 4 + len(buf))
				default:
					return nil, fmt.Errorf("relation: decode chunk: bad string tag %d", tag)
				}
			default:
				c.bytes++ // declared-null column: every value is skip/exception
			}
		}
		nexc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nexc > 0 {
			cv.exc = make(map[int]Value, nexc)
			for j := uint64(0); j < nexc; j++ {
				row, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				v, err := ReadValueRaw(br)
				if err != nil {
					return nil, err
				}
				cv.exc[int(row)] = v
				c.bytes += int64(v.EncodedSize()) - 1 // replaces the NULL byte counted above
			}
		}
	}
	return c, nil
}

// sortInts is a tiny insertion sort for the (rare, small) exception
// row lists, avoiding a sort import in the codec hot path.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
