package relation

import (
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// csvBufSize is WriteCSV's output buffer; it is handed to the writer
// whenever it is half full, so a record of up to 32 KiB never grows it.
const csvBufSize = 64 << 10

// WriteCSV writes the relation with a typed header line
// ("name:kind,...") followed by one CSV record per tuple, in the format
// of encoding/csv's Writer. Records are appended to one reused buffer:
// nothing is allocated per row or per field.
func WriteCSV(w io.Writer, r *Relation) error {
	buf := make([]byte, 0, csvBufSize)
	for i := 0; i < r.Schema.Len(); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		c := r.Schema.Column(i)
		buf = appendCSVField(buf, c.Name+":"+c.Kind.String())
	}
	buf = append(buf, '\n')
	for _, t := range r.Tuples {
		start := len(buf)
		for i, v := range t {
			if i > 0 {
				buf = append(buf, ',')
			}
			// Only strings can need quoting: the other kinds render as
			// digits, signs, '.', 'e', "NaN" and "Inf".
			if v.kind == KindString {
				buf = appendCSVField(buf, v.Str())
			} else {
				buf = v.AppendString(buf)
			}
		}
		if len(t) == 1 && len(buf) == start {
			// A lone empty field would be an empty line, which every CSV
			// reader skips: quote it so the row survives.
			buf = append(buf, '"', '"')
		}
		buf = append(buf, '\n')
		if len(buf) >= csvBufSize/2 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendCSVField appends one field the way encoding/csv's Writer writes
// it (Comma ',', UseCRLF false). Its fieldNeedsQuotes rule: the Postgres
// end-of-data marker, a leading space, or a delimiter, quote, CR or LF
// anywhere; a quoted field has every quote doubled.
func appendCSVField(dst []byte, field string) []byte {
	r1, _ := utf8.DecodeRuneInString(field)
	quote := field == `\.` || unicode.IsSpace(r1)
	for i := 0; i < len(field) && !quote; i++ {
		c := field[i]
		quote = c == ',' || c == '"' || c == '\r' || c == '\n'
	}
	if !quote {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

// ReadCSV reads a relation written by WriteCSV. The relation name is
// supplied by the caller (CSV files do not carry one).
//
// Rows are built the way mr.ReduceContext.EmitConcat builds output
// rows: carved from chunks of Values that hold a sixteenth as many rows
// as have been read so far (at most 2¹² values), each row's capacity
// ending with the row so that an append to it reallocates instead of
// reaching its neighbour. With the reader's record reused, a row costs
// one allocation: the string its fields are cut from.
func ReadCSV(rd io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		parts := strings.SplitN(h, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("relation: malformed csv header field %q (want name:kind)", h)
		}
		kind, err := ParseKind(parts[1])
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: parts[0], Kind: kind}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	rel := New(name, schema)
	var slab []Value
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv: %w", err)
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("relation: csv record has %d fields, want %d", len(rec), len(cols))
		}
		if n := len(cols); cap(slab)-len(slab) < n {
			slab = slices.Grow([]Value(nil), max(n, min(len(rel.Tuples)/16*n, 1<<12)))
		}
		a := len(slab)
		for i, field := range rec {
			v, err := ParseValue(cols[i].Kind, field)
			if err != nil {
				return nil, err
			}
			slab = append(slab, v)
		}
		rel.Tuples = append(rel.Tuples, slab[a:len(slab):len(slab)])
	}
	return rel, nil
}

// The raw tuple codec is the one binary encoding, used for everything
// the engine itself writes to disk: mr's spill runs and dfs's
// checkpoints. A tuple is uvarint(arity) followed by its values, each
// self-describing and needing no dictionary context:
//
//	u8 kind | int, time → u64 payload
//	        | float     → u64 bits
//	        | string    → uvarint code slot (0 = not interned),
//	                      u32 length, bytes
//
// so a reloaded Value is bit-identical to the one written — kind,
// payload and dictionary code slot, and with them EncodedSize, sort keys
// and content hashes.

// AppendTupleRaw appends t in the raw layout.
func AppendTupleRaw(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindInt, KindTime, KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, v.w)
		case KindString:
			dst = binary.AppendUvarint(dst, v.w)
			dst = binary.LittleEndian.AppendUint32(dst, v.n)
			dst = append(dst, v.Str()...)
		}
	}
	return dst
}

// DecodeTupleRaw decodes the tuple AppendTupleRaw wrote at the front of
// b and returns it with the rest of b. Its callers hold the encoded
// bytes in memory already (a spill frame's payload, a checkpoint block),
// so values are sliced out of them with no reader in between. It never
// reads past b; truncated or malformed bytes are an error.
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
			// string(...) copies: a Value never views its caller's buffer.
			t[i], b = strValue(string(b[:n]), slot), b[n:]
		case kind <= KindTime && len(b) >= 8: // int, float, time: 8 payload bytes
			t[i], b = Value{kind: kind, w: binary.LittleEndian.Uint64(b)}, b[8:]
		default:
			return nil, nil, errRawTuple
		}
	}
	return t, b, nil
}

var errRawTuple = errors.New("relation: raw tuple truncated or malformed")
