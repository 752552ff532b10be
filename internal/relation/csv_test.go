package relation_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/relation"
)

// referenceReadCSV is ReadCSV as it stood on encoding/csv: the oracle
// the byte-level reader is held to, on what it accepts and on every
// value of what it returns.
func referenceReadCSV(rd io.Reader, name string) (*relation.Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	cols := make([]relation.Column, len(header))
	for i, h := range header {
		n, k, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("malformed header field %q", h)
		}
		kind, err := relation.ParseKind(k)
		if err != nil {
			return nil, err
		}
		cols[i] = relation.Column{Name: n, Kind: kind}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	rel := relation.New(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("record has %d fields, want %d", len(rec), len(cols))
		}
		row := make(relation.Tuple, len(rec))
		for i, field := range rec {
			if row[i], err = relation.ParseValue(cols[i].Kind, field); err != nil {
				return nil, err
			}
		}
		rel.Tuples = append(rel.Tuples, row)
	}
}

func sameRow(a, b relation.Tuple) bool { return slices.EqualFunc(a, b, relation.Identical) }

// checkAgainstReference reads in with read and with the encoding/csv
// reader and fails unless both refuse it or both return the same schema
// and bit-identical rows.
func checkAgainstReference(t testing.TB, what, in string, read func(io.Reader) (*relation.Relation, error)) *relation.Relation {
	t.Helper()
	got, err := read(strings.NewReader(in))
	want, refErr := referenceReadCSV(strings.NewReader(in), "ref")
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%s: input %q: err = %v, encoding/csv reader's = %v", what, in, err, refErr)
	}
	if err != nil {
		return nil
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: input %q: schema %v, want %v", what, in, got.Schema, want.Schema)
	}
	if !slices.EqualFunc(got.Tuples, want.Tuples, sameRow) {
		t.Fatalf("%s: input %q:\n got rows %v\nwant rows %v", what, in, got.Tuples, want.Tuples)
	}
	return got
}

// csvTraps are the inputs a CSV reader gets wrong: one per rule of
// encoding/csv's grammar, accepted and refused.
var csvTraps = []string{
	// Quoting.
	"s:string,n:int\n\"a\"\"b\",1\n\"\"\"\",2\n\"\"\"x\"\"\",3\n",
	"s:string,n:int\n\"line\nbreak\",1\n\"two\n\nbreaks\n\",2\nplain,3\n",
	"s:string,n:int\n\"a,b\",1\n\",\",2\n",
	"s:string\n\"\"\n\"\"\n\nx\n\"\"",
	"n:int\n\"\"\n\"12\"\n\"-3\"\n",
	"a:int,s:string\n1,\"unterminated\n2,x\n",
	"a:int,s:string\n1,\"closed\"x\n",
	"a:int,s:string\n1,\"closed\" \n",
	"a:int,s:string\n1,\"closed\"\"\n",
	"a:int,s:string\n1,bare\"quote\n",
	"a:int,s:string\n1, \"not a quoted field\"\n",
	"a:int,s:string\n1\"2,x\n",
	"s:string,t:string\n\"a\",\"b\"\n\"a\"\n",
	"\"quoted:string\",\"n,m:int\"\n1,2\n",
	"\"multi\nline:string\"\nx\n",
	// Line ends.
	"a:int,s:string\r\n1,x\r\n2,y\r\n",
	"a:int,s:string\r\n1,\"x\r\ny\"\r\n2,\"\r\n\"\r\n",
	"s:string,a:int\n\"x\"\r\n\"y\",2\r\n",
	"s:string\nx\r\r\n\r\r\n\"\r\r\n\"\n",
	"s:string,t:string\na\rb,c\r\n\r,\r\r\n",
	"a:int\n1\r",
	"a:int\n1\n\r",
	"s:string\n\"x\"\r",
	"s:string\n\"x\r",
	"a:int\n1",
	"a:int,b:int\n1,",
	"a:int,b:int\n1,2\n3,\n",
	"s:string\n\"no newline\"",
	// Blank lines.
	"\n\n\r\na:int\n\n1\n\r\n\n2\n\n",
	"\n\n\n",
	"\r\n",
	"",
	"a:int\n",
	"a:int",
	// Arity.
	"a:int,b:int\n1\n",
	"a:int,b:int\n1,2,3\n",
	"a:int,b:int\n1,2\n3\n4,5\n",
	"a:int,b:int\n1,2,\"x\n",
	"a:int,b:int\n1,2,x\"y\n",
	"a:int\n1,\n",
	"a:int\n,\n",
	// Values.
	"a:int\n0\n-0\n+5\n-\n",
	"a:int\n007\n-007\n",
	"a:int\n999999999999999999\n-999999999999999999\n1000000000000000000\n9223372036854775807\n-9223372036854775808\n",
	"a:int\n9223372036854775808\n",
	"a:int\n1_000\n",
	"a:int\n0x10\n",
	"a:int\n1e3\n",
	"a:int\n 1\n",
	"a:int\n1 \n",
	"a:int\n--1\n",
	"a:int,b:int\n-,1\n",
	"t:time\n86400\n-1\n\nx\n",
	"t:time,u:time\n86400,\"-5\"\n,\n",
	"f:float\n0.5\n-0\nNaN\n+Inf\n-Inf\n1e400\n",
	"f:float\n0x1p-2\n1_0\n.5\n5.\ninfinity\n",
	"f:float\n1.2.3\n",
	"f:float,g:float\n1e3,\"2.5\"\n,\n",
	"f:float\n0.1234567890123456789012345678901234567890123456789\n",
	"n:null,m:null\nanything,\"at\nall\"\n,\n",
	"a:int,b:string,c:float,d:time,e:null\n,,,,\n1,x,0.5,86400,\n",
	"s:string\n\xff\xfe\n\"\xc2\"\n",
	"s:string,t:string\n" + strings.Repeat("long ", 9) + ",\"" + strings.Repeat("q\"\"", 7) + "\"\n",
	// Headers.
	"bad header\n1\n",
	"a:bogus\n",
	"a:int,a:int\n1,2\n",
	"a:int:x\n1\n",
	":int\n1\n",
	"a\"b:int\n1\n",
	"\"a:int\n1\n",
}

// TestReadCSVMatchesEncodingCSV holds the reader to the encoding/csv
// reader on every trap, inline and with 2 and 8 workers, with blocks so
// small that every record end, quoted line break, "" and "\r\n" of every
// input lands on a block boundary for some size.
func TestReadCSVMatchesEncodingCSV(t *testing.T) {
	for _, in := range csvTraps {
		checkAgainstReference(t, "ReadCSV", in, func(rd io.Reader) (*relation.Relation, error) { return relation.ReadCSV(rd, "t") })
		for _, workers := range []int{1, 2, 8} {
			for _, size := range []int{1, 2, 3, 4, 5, 7, 11, 16, 31, 64, 257} {
				what := fmt.Sprintf("%d workers, blocks of %d", workers, size)
				checkAgainstReference(t, what, in, func(rd io.Reader) (*relation.Relation, error) {
					return relation.ReadCSVBlocks(rd, "t", size, workers)
				})
			}
		}
	}
}

// TestReadCSVErrorsSayWhere: a refused record is named by its number
// (the header is record 0; blank lines are not records) and its column,
// and of two bad records the first in the file is the one reported,
// however many workers there are and wherever the blocks are cut.
func TestReadCSVErrorsSayWhere(t *testing.T) {
	var rows strings.Builder
	rows.WriteString("id:int,name:string,score:float\n\n")
	for i := 1; i <= 400; i++ {
		switch i {
		case 137:
			rows.WriteString("137,n137,not-a-float\n")
		case 311:
			rows.WriteString("x,n311\n")
		default:
			fmt.Fprintf(&rows, "%d,\"n\n%d\",%d.5\n\n", i, i, i)
		}
	}
	for _, c := range []struct {
		in   string
		want []string
	}{
		{rows.String(), []string{"record 137", `column "score"`, `"not-a-float"`}},
		{"a:int,b:int\n1,2\n\n3,x\n", []string{"record 2", `column "b"`, `parse int "x"`}},
		{"a:int,b:int\n1,2\n3,4\n5\n", []string{"record 3", "1 fields, want 2"}},
		{"a:int,b:int\n1,2,3\n", []string{"record 1", "3 fields, want 2"}},
		{"a:int,b:string\n1,x\"y\n", []string{"record 1", `column "b"`, `bare "`}},
		{"a:int,b:string\n1,\"x\"y\n", []string{"record 1", `column "b"`, `" in a quoted field`}},
		{"a:int,b:string\n1,x\n2,\"y\n", []string{"record 2", `column "b"`, `" in a quoted field`}},
		{"a:int\n1,\"x\"y\n", []string{"record 1", "field 2"}},
		{"a:time\n1\n2\nnoon\n", []string{"record 3", `column "a"`, `parse time "noon"`}},
		{"a:int,\"b\"x:int\n", []string{"header", "field 2"}},
	} {
		for _, workers := range []int{1, 2, 8} {
			for _, size := range []int{16, 100, 1000, 64 << 10} {
				_, err := relation.ReadCSVBlocks(strings.NewReader(c.in), "t", size, workers)
				if err == nil {
					t.Fatalf("%d workers, blocks of %d: %q accepted", workers, size, clip(c.in))
				}
				for _, w := range c.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("%d workers, blocks of %d: %q: error %q does not say %q", workers, size, clip(c.in), err, w)
					}
				}
			}
		}
	}
}

// quotedRows is a generated relation of n rows whose strings need every
// kind of quoting, and some none.
func quotedRows(n int) *relation.Relation {
	r := relation.New("q", relation.MustSchema(col("id", relation.KindInt), col("text", relation.KindString),
		col("f", relation.KindFloat), col("t", relation.KindTime), col("tag", relation.KindString), col("n", relation.KindNull)))
	rng := rand.New(rand.NewSource(11))
	pieces := []string{"plain", "with,comma", "say \"hi\"", "line\nbreak", "cr\rlf\n", " leading", "", "tab\t", `\.`, "héllo ✓", "\""}
	for i := 0; i < n; i++ {
		text := pieces[rng.Intn(len(pieces))]
		for rng.Intn(3) == 0 {
			text += pieces[rng.Intn(len(pieces))]
		}
		row := relation.Tuple{relation.Int(rng.Int63() >> uint(rng.Intn(64))), relation.Str(text),
			relation.Float(rng.NormFloat64()), relation.TimeUnix(int64(i) * 60), relation.Str(fmt.Sprintf("tag-%04d", rng.Intn(500))), relation.Null()}
		if rng.Intn(2) == 0 {
			row[0] = relation.Int(-row[0].Int64())
		}
		if rng.Intn(20) == 0 {
			row[rng.Intn(len(row))] = relation.Null()
		}
		r.Tuples = append(r.Tuples, row)
	}
	return r
}

// TestReadCSVWriteCSVAtAnyGOMAXPROCS: on a relation of many blocks, whatever the
// number of workers, WriteCSV writes the bytes of the encoding/csv
// writer and ReadCSV returns the rows of the encoding/csv reader. The
// race detector watches the workers, the ring and the carried bytes.
func TestReadCSVWriteCSVAtAnyGOMAXPROCS(t *testing.T) {
	r := quotedRows(24000)
	var want bytes.Buffer
	if err := referenceWriteCSV(&want, r); err != nil {
		t.Fatal(err)
	}
	wantRows, err := referenceReadCSV(bytes.NewReader(want.Bytes()), "q")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		if err := relation.WriteCSV(&got, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("GOMAXPROCS %d: WriteCSV differs from the encoding/csv writer (%d bytes, want %d)", procs, got.Len(), want.Len())
		}
		back, err := relation.ReadCSV(bytes.NewReader(got.Bytes()), "q")
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !back.Schema.Equal(r.Schema) || !slices.EqualFunc(back.Tuples, wantRows.Tuples, sameRow) {
			t.Fatalf("GOMAXPROCS %d: ReadCSV differs from the encoding/csv reader (%d rows, want %d)", procs, len(back.Tuples), len(wantRows.Tuples))
		}
		for i, row := range back.Tuples {
			if cap(row) != len(row) {
				t.Fatalf("GOMAXPROCS %d: row %d has capacity %d beyond its %d values", procs, i, cap(row), len(row))
			}
		}
	}
}

// TestReadCSVFromAwkwardReaders: a reader that returns one byte at a
// time, half of what is asked, or its last bytes together with io.EOF
// yields the same relation; one that fails yields its error, after the
// errors of the records before it.
func TestReadCSVFromAwkwardReaders(t *testing.T) {
	var text bytes.Buffer
	if err := relation.WriteCSV(&text, quotedRows(3000)); err != nil {
		t.Fatal(err)
	}
	want, err := referenceReadCSV(bytes.NewReader(text.Bytes()), "q")
	if err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"OneByteReader":                iotest.OneByteReader,
		"HalfReader":                   iotest.HalfReader,
		"DataErrReader":                iotest.DataErrReader,
		"DataErrReader(OneByteReader)": func(r io.Reader) io.Reader { return iotest.DataErrReader(iotest.OneByteReader(r)) },
	} {
		for _, workers := range []int{1, 3} {
			got, err := relation.ReadCSVBlocks(wrap(bytes.NewReader(text.Bytes())), "q", 4096, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if !slices.EqualFunc(got.Tuples, want.Tuples, sameRow) {
				t.Fatalf("%s, %d workers: rows differ (%d, want %d)", name, workers, len(got.Tuples), len(want.Tuples))
			}
		}
	}

	errDisk := errors.New("disk on fire")
	failing := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s), iotest.ErrReader(errDisk)) }
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		if _, err := relation.ReadCSVBlocks(failing(text.String()[:text.Len()/2]), "q", 4096, workers); !errors.Is(err, errDisk) {
			t.Errorf("%d workers: failing reader: err = %v, want %v", workers, err, errDisk)
		}
		if _, err := relation.ReadCSVBlocks(failing("a:i"), "q", 4096, workers); !errors.Is(err, errDisk) || !strings.Contains(err.Error(), "header") {
			t.Errorf("%d workers: reader failing in the header: err = %v", workers, err)
		}
		bad := "a:int\n1\nx\n" + strings.Repeat("2\n", 5000)
		if _, err := relation.ReadCSVBlocks(failing(bad), "q", 4096, workers); err == nil || errors.Is(err, errDisk) || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("%d workers: bad record before the reader fails: err = %v", workers, err)
		}
	}
	noGoroutinesLeft(t, before)
}

// noGoroutinesLeft fails unless the goroutine count is back at before.
// The codec waits for its workers' last statement, not for the runtime
// to retire them, so the count is given a moment to settle.
func noGoroutinesLeft(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines before, %d after", before, runtime.NumGoroutine())
			return
		}
	}
}

// TestReadCSVLongRecord: a record many blocks long — all of it one
// quoted field full of line breaks and quotes — is read whole.
func TestReadCSVLongRecord(t *testing.T) {
	long := strings.Repeat("a \"quoted\" line\r\nand, another\n", 3000)
	r := relation.New("l", relation.MustSchema(col("id", relation.KindInt), col("s", relation.KindString)))
	r.Tuples = []relation.Tuple{{relation.Int(1), relation.Str("short")}, {relation.Int(2), relation.Str(long)}, {relation.Int(3), relation.Str("after")}}
	var text bytes.Buffer
	if err := relation.WriteCSV(&text, r); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := checkAgainstReference(t, fmt.Sprintf("%d workers", workers), text.String(), func(rd io.Reader) (*relation.Relation, error) {
			return relation.ReadCSVBlocks(rd, "l", 512, workers)
		})
		if want := strings.ReplaceAll(long, "\r\n", "\n"); got.Tuples[1][1].Str() != want {
			t.Errorf("%d workers: long field read back as %d bytes, want %d", workers, len(got.Tuples[1][1].Str()), len(want))
		}
	}
}

// stallingWriter sleeps in its first Write, so that every later block
// is rendered and waiting before the first is out.
type stallingWriter struct {
	bytes.Buffer
	stalled bool
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if !w.stalled {
		w.stalled = true
		time.Sleep(50 * time.Millisecond)
	}
	return w.Buffer.Write(p)
}

// TestWriteCSVStalledFirstBlock: with the writer stuck on block 0 the
// workers run out of buffers; they must wait for the ring, not take a
// buffer the next block to be written needs.
func TestWriteCSVStalledFirstBlock(t *testing.T) {
	r := quotedRows(5000)
	var want bytes.Buffer
	if err := referenceWriteCSV(&want, r); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		var w stallingWriter
		done := make(chan error, 1)
		go func() { done <- relation.WriteCSVBlocks(&w, r, 16, workers) }()
		select {
		case err := <-done:
			if err != nil || !bytes.Equal(w.Bytes(), want.Bytes()) {
				t.Errorf("%d workers: err %v, %d bytes written, want %d", workers, err, w.Len(), want.Len())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d workers: WriteCSV is stuck behind a stalled first block", workers)
		}
	}
}

// TestWriteCSVStopsAtWriteError: when a Write fails, WriteCSV returns
// that error with its workers gone, and nothing beyond the ring of
// blocks it had handed out is rendered any more — rendering the rows
// past it would fault.
func TestWriteCSVStopsAtWriteError(t *testing.T) {
	const blockRows, workers = 8, 3
	r := relation.New("p", relation.MustSchema(col("s", relation.KindString), col("n", relation.KindInt)))
	for i := 0; i < 4000; i++ {
		s := relation.Str("fine")
		if i >= blockRows*(workers+1) {
			s = relation.UnrenderableValue()
		}
		r.Tuples = append(r.Tuples, relation.Tuple{s, relation.Int(int64(i))})
	}
	before := runtime.NumGoroutine()
	if err := relation.WriteCSVBlocks(&failingWriter{}, r, blockRows, workers); err != io.ErrShortWrite {
		t.Errorf("err = %v, want %v", err, io.ErrShortWrite)
	}
	noGoroutinesLeft(t, before)
	// The rows are the caller's again: nobody is reading them.
	for _, row := range r.Tuples {
		row[0] = relation.Str("rewritten")
	}
}
