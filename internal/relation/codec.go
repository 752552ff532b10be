package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

const (
	// csvBlockSize is how much of its input ReadCSV holds in one buffer:
	// the unit that is cut at a record boundary and parsed by one worker.
	// A 3 MB file is some hundred of them. It is also what a buffer of
	// WriteCSV's starts out as.
	csvBlockSize = 32 << 10
	// csvBlockRows is how many rows WriteCSV renders into one buffer
	// before the buffer goes to the writer: 6 to 27 KB of the benchmark's
	// results.
	csvBlockRows = 128
)

// WriteCSV writes the relation with a typed header line
// ("name:kind,...") followed by one CSV record per tuple, in the format
// of encoding/csv's Writer.
//
// Rows are rendered csvBlockRows at a time into a ring of reused buffers
// (see inOrder), by min(GOMAXPROCS, blocks) workers, and written by the
// calling goroutine in block order, one Write per block. Nothing is
// allocated per row or per field, and no more than the ring is ever
// rendered ahead of the writer — which is also all that is still
// rendered after a failed Write.
func WriteCSV(w io.Writer, r *Relation) error {
	return writeCSV(w, r, csvBlockRows, runtime.GOMAXPROCS(0))
}

func writeCSV(w io.Writer, r *Relation, blockRows, workers int) error {
	type block struct {
		buf  []byte
		rows []Tuple
	}
	header := make([]byte, 0, csvBlockSize)
	for i := 0; i < r.Schema.Len(); i++ {
		if i > 0 {
			header = append(header, ',')
		}
		c := r.Schema.Column(i)
		header = appendCSVField(header, c.Name+":"+c.Kind.String())
	}
	ring := make([]block, max(workers, 1)+1)
	ring[0].buf = append(header, '\n') // the first block's rows follow it
	rows := r.Tuples
	return inOrder(workers, len(ring),
		func(slot int) (bool, error) {
			if ring[slot].buf == nil {
				ring[slot].buf = make([]byte, 0, csvBlockSize)
			}
			n := min(blockRows, len(rows))
			ring[slot].rows, rows = rows[:n], rows[n:]
			return len(rows) == 0, nil
		},
		func(slot int) { ring[slot].buf = appendCSVRows(ring[slot].buf, ring[slot].rows) },
		func(slot int) error {
			_, err := w.Write(ring[slot].buf)
			ring[slot].buf = ring[slot].buf[:0]
			return err
		})
}

// inOrder runs a sequence of blocks through a ring of slots: one for
// each worker and one for the calling goroutine to fill or drain
// meanwhile. fill(slot) readies the next block, here and in block order,
// and says whether it is the last; work(slot) processes it, on one of
// min(workers, blocks) goroutines; drain(slot) takes the outcome, here
// and in block order, after which the slot is filled again. Slots are
// given to blocks here, in turn, not taken by the workers: a worker that
// took the last free one for a late block would leave the block that
// drain waits for without. With one worker, or when the first block is
// the last, work runs here too. The first error of fill or drain ends
// it, and when it returns every goroutine it started is gone.
func inOrder(workers, slots int, fill func(slot int) (last bool, err error), work func(slot int), drain func(slot int) error) error {
	var (
		busy    = make([]bool, slots) // with a worker, which will signal done
		done    = make([]chan struct{}, slots)
		todo    = make(chan int, slots) // holds every block in flight: dispatch never blocks
		wg      sync.WaitGroup
		started int
	)
	defer wg.Wait()
	defer close(todo)
	settle := func(slot int) error {
		if !busy[slot] {
			return nil
		}
		<-done[slot]
		busy[slot] = false
		return drain(slot)
	}
	for k := 0; ; k++ {
		slot := k % slots
		if err := settle(slot); err != nil {
			return err
		}
		last, err := fill(slot)
		if err != nil {
			return err
		}
		if workers < 2 || k == 0 && last {
			work(slot)
			if err := drain(slot); err != nil {
				return err
			}
		} else {
			if started < workers {
				started++
				wg.Add(1)
				go func() {
					defer wg.Done()
					for slot := range todo {
						work(slot)
						done[slot] <- struct{}{}
					}
				}()
			}
			if done[slot] == nil {
				done[slot] = make(chan struct{}, 1)
			}
			busy[slot] = true
			todo <- slot
		}
		if !last {
			continue
		}
		for i := 1; i <= slots; i++ { // oldest first
			if err := settle((k + i) % slots); err != nil {
				return err
			}
		}
		return nil
	}
}

// appendCSVRows is the one record renderer: it appends a line per row.
func appendCSVRows(buf []byte, rows []Tuple) []byte {
	for _, t := range rows {
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
	}
	return buf
}

// appendCSVField appends one field the way encoding/csv's Writer writes
// it (Comma ',', UseCRLF false). Its fieldNeedsQuotes rule: the Postgres
// end-of-data marker, a leading space (unicode.IsSpace), or a delimiter,
// quote, CR or LF anywhere; a quoted field has every quote doubled.
func appendCSVField(dst []byte, field string) []byte {
	quote := field == `\.`
	if len(field) > 0 {
		if c := field[0]; c < utf8.RuneSelf {
			quote = quote || c == ' ' || c-'\t' < 5 // "\t\n\v\f\r"
		} else {
			r1, _ := utf8.DecodeRuneInString(field)
			quote = unicode.IsSpace(r1)
		}
	}
	for i := 0; i < len(field) && !quote; i++ {
		quote = csvMustQuote[field[i]]
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

// csvMustQuote marks the bytes that, anywhere in a field, make
// encoding/csv quote it.
var csvMustQuote = [256]bool{',': true, '"': true, '\r': true, '\n': true}

// ReadCSV reads a relation written by WriteCSV. The relation name is
// supplied by the caller (CSV files do not carry one). It accepts and
// rejects what encoding/csv's Reader does: quoted fields with "" and
// line breaks, "\r\n" folded to "\n" (inside quotes too), blank lines
// skipped, a bare quote in an unquoted field refused, a last record
// without its newline taken. An error names the record (the header is
// record 0) and the column; of several, the first in the file is
// reported.
//
// The input is read csvBlockSize bytes at a time into a ring of reused
// buffers (see inOrder) and is never held whole. A serial pass that
// looks at nothing but '\n' and '"' cuts each buffer after its last whole
// record and carries the rest into the next; min(GOMAXPROCS, blocks)
// workers parse the blocks, and the calling goroutine collects them in
// file order. A record longer than a block grows the buffer it is in.
//
// Fields become Values straight from the text. A block's rows share one
// slab of exactly rows × columns Values and one string, a copy of the
// block, which its string Values are pieces of and which they alone
// keep alive (a relation without strings drops it at once). Each row's
// capacity ends with the row, so that an append to it reallocates
// instead of reaching its neighbour. A row costs no allocation of its
// own; a block costs two.
func ReadCSV(rd io.Reader, name string) (*Relation, error) {
	return readCSV(rd, name, csvBlockSize, runtime.GOMAXPROCS(0))
}

// csvBlock is one slot of ReadCSV's ring.
type csvBlock struct {
	buf  []byte // what was read; a record cut short at its end is carried on
	recs []byte // the whole records of buf still to be parsed
	text string // a copy of recs, if the header's parser has made one
	p    csvParser

	// What parsing recs gave: the values of n records, ncols each, or err.
	vals []Value
	n    int
	err  *csvRecordError
}

func readCSV(rd io.Reader, name string, blockSize, workers int) (*Relation, error) {
	var (
		src     = csvSource{rd: rd, size: blockSize}
		ring    = make([]csvBlock, max(workers, 1)+1)
		rel     *Relation
		hdr     csvParser // the header's; its columns are every block's
		slabs   [][]Value
		records = 1 // the number of the next block's first record
	)
	err := inOrder(workers, len(ring),
		func(slot int) (bool, error) {
			b := &ring[slot]
			b.buf, b.recs = src.next(b.buf)
			if rel == nil {
				schema, rows, err := hdr.header(b.recs)
				if err == nil && schema == nil && src.err != nil {
					err = fmt.Errorf("relation: read csv header: %w", src.err)
				}
				if schema == nil {
					b.recs = nil // blank lines so far
					return false, err
				}
				rel, b.recs, b.text = New(name, schema), b.recs[len(b.recs)-len(rows):], rows
			}
			b.p.cols = hdr.cols
			return src.err != nil, nil
		},
		func(slot int) { ring[slot].parse() },
		func(slot int) error {
			b := &ring[slot]
			if b.err != nil {
				b.err.record += records
				return fmt.Errorf("relation: read csv: %w", b.err)
			}
			slabs = append(slabs, b.vals)
			records += b.n
			return nil
		})
	if err == nil && src.err != io.EOF {
		err = fmt.Errorf("relation: read csv: %w", src.err)
	}
	if err != nil {
		return nil, err
	}
	ncols, rows := rel.Schema.Len(), 0
	for _, s := range slabs {
		rows += len(s) / ncols
	}
	if rows > 0 {
		rel.Tuples = make([]Tuple, 0, rows)
	}
	for _, s := range slabs {
		for ; len(s) > 0; s = s[ncols:] {
			rel.Tuples = append(rel.Tuples, s[:ncols:ncols])
		}
	}
	return rel, nil
}

// csvSource cuts a reader into blocks of whole records.
type csvSource struct {
	rd      io.Reader
	size    int
	carry   []byte // the start of a record after the last block's cut, in that block's buffer
	inQuote bool   // whether carry ends inside a quoted field
	err     error  // what ended the input: io.EOF, or the reader's error
}

// next refills buf with the carried bytes and size more, and again
// while no record ends in them, and returns it with the whole records at
// its front. Once the reader has ended (s.err) that is all of buf — the
// last record need not end in a newline — unless it ended in an error.
func (s *csvSource) next(buf []byte) (_, recs []byte) {
	buf = append(buf[:0], s.carry...)
	s.carry = nil
	for {
		scanned := len(buf)
		buf = slices.Grow(buf, s.size)
		n, err := io.ReadFull(s.rd, buf[scanned:scanned+s.size])
		buf = buf[:scanned+n]
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		if s.err = err; err == io.EOF {
			if len(buf) > 0 && buf[len(buf)-1] == '\r' {
				buf = buf[:len(buf)-1] // as encoding/csv: a "\r" that ends the input is dropped
			}
			return buf, buf
		}
		var cut int
		if cut, s.inQuote = lastRecordEnd(buf[scanned:], s.inQuote); cut >= 0 {
			s.carry = buf[scanned+cut:]
			return buf, buf[:scanned+cut]
		}
		if err != nil {
			return buf, nil // the reader failed inside a record: its error is all there is to report
		}
	}
}

// lastRecordEnd returns the offset just past the last '\n' of b outside
// a quoted field, or -1, and whether b ends inside one; inQuote says
// whether it starts inside one. Quotes are only counted. That is exact
// on valid input, where a field's quotes and the "" inside it come in
// pairs; in any other input the counts are right up to the first record
// that breaks the rule, so that record is parsed from its true start,
// and it is the one reported.
func lastRecordEnd(b []byte, inQuote bool) (int, bool) {
	quote := []byte{'"'}
	atEnd := inQuote != (bytes.Count(b, quote)%2 == 1)
	q := atEnd
	for end := len(b); ; {
		i := bytes.LastIndexByte(b[:end], '\n')
		if i < 0 {
			return -1, atEnd
		}
		if q = q != (bytes.Count(b[i+1:end], quote)%2 == 1); !q {
			return i + 1, atEnd
		}
		end = i
	}
}

// csvRecordError is a record ReadCSV refuses.
type csvRecordError struct {
	record int // counted from its block's first; ReadCSV adds the records before the block
	err    error
}

func (e *csvRecordError) Error() string { return fmt.Sprintf("record %d: %v", e.record, e.err) }
func (e *csvRecordError) Unwrap() error { return e.err }

var (
	errCSVBareQuote = errors.New(`bare " in an unquoted field`)
	errCSVQuote     = errors.New(`extraneous or missing " in a quoted field`)
)

// csvParser is the one record parser, with the scratch one goroutine's
// use of it needs.
type csvParser struct {
	cols []Column // nil for the header: any number of fields, all strings
	unq  []byte   // a quoted field with its "" and "\r\n" taken out
}

// header parses the first record of recs as the "name:kind" header and
// returns the schema and, as a string, the rows after it; or a nil
// schema when recs is nothing but blank lines. It leaves p set up to
// parse the rows.
func (p *csvParser) header(recs []byte) (*Schema, string, error) {
	text := string(recs)
	vals, n, _, bad := p.parse(text, 1, nil)
	if bad != nil {
		return nil, "", fmt.Errorf("relation: read csv header: %w", bad.err)
	}
	if len(vals) == 0 {
		return nil, "", nil
	}
	cols := make([]Column, len(vals))
	for i, v := range vals {
		name, kindName, ok := strings.Cut(v.Str(), ":")
		if !ok {
			return nil, "", fmt.Errorf("relation: malformed csv header field %q (want name:kind)", v.Str())
		}
		kind, err := ParseKind(kindName)
		if err != nil {
			return nil, "", err
		}
		// A name of its own: the schema outlives the rows' text.
		cols[i] = Column{Name: strings.Clone(name), Kind: kind}
	}
	schema, err := NewSchema(cols...)
	p.cols = cols
	return schema, text[n:], err
}

// parse parses b.recs into a slab of its own. Its string values are cut
// from one string, a copy of b.recs, that they alone keep alive.
func (b *csvBlock) parse() {
	// A line is a record unless it is blank or inside quotes, and a value
	// takes at least the byte that ends it (but for the input's last).
	lines := bytes.Count(b.recs, []byte{'\n'})
	if n := len(b.recs); n > 0 && b.recs[n-1] != '\n' {
		lines++
	}
	vals := make([]Value, 0, min(lines*len(b.p.cols), len(b.recs)+1))
	if b.text == "" {
		b.text = string(b.recs)
	}
	vals, _, b.n, b.err = b.p.parse(b.text, -1, vals)
	if len(vals) < cap(vals) {
		vals = append(make([]Value, 0, len(vals)), vals...)
	}
	b.vals, b.text = vals, ""
}

// parse appends the values of up to limit records of s (all, if
// negative) to vals and returns them with the bytes taken and the
// records seen. s ends with a record's end; string values are pieces of
// it.
func (p *csvParser) parse(s string, limit int, vals []Value) (_ []Value, pos, recs int, _ *csvRecordError) {
	cols := p.cols
	for pos < len(s) && recs != limit {
		switch c := s[pos]; {
		case c == '\n':
			pos++
			continue
		case c == '\r' && pos+1 < len(s) && s[pos+1] == '\n':
			pos += 2
			continue
		}
		recs++
		col := 0
		for ; ; col++ {
			// Fields beyond the schema are scanned and counted, not kept.
			kind, keep := KindString, true
			if cols != nil {
				if keep = col < len(cols); keep {
					kind = cols[col].Kind
				}
			}
			var field string
			switch {
			case pos < len(s) && s[pos] == '"':
				var err error
				if field, pos, err = p.quoted(s, pos); err != nil {
					return vals, pos, recs, p.fail(recs, col, err)
				}
			case kind == KindInt || kind == KindTime:
				// The digit loop: an optional '-' and up to 18 digits, which
				// cannot overflow, ended by the field's end. Anything else
				// ("+1", "1e3", 19 digits, "1\r\n") is left to strconv.
				i, neg := pos, false
				if i < len(s) && s[i] == '-' {
					i, neg = i+1, true
				}
				var n uint64
				first := i
				for ; i < len(s) && s[i]-'0' <= 9; i++ {
					n = n*10 + uint64(s[i]-'0')
				}
				if (i == len(s) || s[i] == ',' || s[i] == '\n') && (uint(i-first-1) < 18 || i == pos) {
					v := Value{}
					if i > pos {
						if neg {
							n = -n
						}
						v = Value{kind: kind, w: n}
					}
					vals = append(vals, v)
					pos, keep = i, false // the value is in: nothing to make of field
					break
				}
				fallthrough
			default:
				start := pos
				for pos < len(s) && !csvUnquotedStop[s[pos]] {
					pos++
				}
				if pos < len(s) && s[pos] == '"' {
					return vals, pos, recs, p.fail(recs, col, errCSVBareQuote)
				}
				field = s[start:pos]
				if pos < len(s) && s[pos] == '\n' && strings.HasSuffix(field, "\r") {
					field = field[:len(field)-1]
				}
			}
			if keep {
				v, err := ParseValue(kind, field)
				if err != nil {
					return vals, pos, recs, p.fail(recs, col, err)
				}
				vals = append(vals, v)
			}
			if pos == len(s) {
				break // the input's last record, without its newline
			}
			pos++
			if s[pos-1] == '\n' {
				break
			}
		}
		if cols != nil && col+1 != len(cols) {
			return vals, pos, recs, &csvRecordError{recs - 1, fmt.Errorf("%d fields, want %d", col+1, len(cols))}
		}
	}
	return vals, pos, recs, nil
}

// csvUnquotedStop marks what an unquoted field cannot run over: the two
// bytes that end it and the one it must not hold.
var csvUnquotedStop = [256]bool{',': true, '\n': true, '"': true}

// fail is err at the col'th field of the recs'th record of a block.
func (p *csvParser) fail(recs, col int, err error) *csvRecordError {
	if col < len(p.cols) {
		return &csvRecordError{recs - 1, fmt.Errorf("column %q: %w", p.cols[col].Name, err)}
	}
	return &csvRecordError{recs - 1, fmt.Errorf("field %d: %w", col+1, err)}
}

// quoted scans the quoted field that opens at s[pos] and returns its
// content and the position of the ',' or '\n' that ends it (len(s) for
// the input's last). The content is a piece of s, or, when a "" or a
// "\r\n" had to be taken out of it, a string of its own.
func (p *csvParser) quoted(s string, pos int) (string, int, error) {
	pos++
	start, spliced := pos, false
	p.unq = p.unq[:0]
	for pos < len(s) {
		switch c := s[pos]; {
		case c == '"' && pos+1 < len(s) && s[pos+1] == '"':
			p.unq = append(p.unq, s[start:pos+1]...)
			pos += 2
			start, spliced = pos, true
		case c == '"':
			field := s[start:pos]
			if spliced {
				field = string(append(p.unq, field...))
			}
			pos++
			if pos+1 < len(s) && s[pos] == '\r' && s[pos+1] == '\n' {
				pos++
			}
			if pos < len(s) && s[pos] != ',' && s[pos] != '\n' {
				return "", pos, errCSVQuote
			}
			return field, pos, nil
		case c == '\r' && pos+1 < len(s) && s[pos+1] == '\n':
			p.unq = append(p.unq, s[start:pos]...)
			pos++
			start, spliced = pos, true
		default:
			pos++
		}
	}
	return "", pos, errCSVQuote
}

// The raw tuple codec is the one binary encoding, used for everything
// the engine itself writes to disk: mr's spill runs. A tuple is
// uvarint(arity) followed by its values, each
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
// bytes in memory already (a spill frame's payload), so values are
// sliced out of them with no reader in between. It never
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
