package relation_test

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/workloads"
)

// referenceContentHash is ContentHash as it stood before the result
// path was made allocation-free: hash/fnv behind an interface, one
// writer per row, one Value.String() per value. It is kept as the
// oracle the inlined, sharded implementation must equal bit for bit.
func referenceContentHash(r *relation.Relation) uint64 {
	type writer struct {
		h interface {
			io.Writer
			Sum64() uint64
		}
	}
	u64 := func(w writer, v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		w.h.Write(buf[:])
	}
	str := func(w writer, s string) {
		u64(w, uint64(len(s)))
		w.h.Write([]byte(s))
	}
	f := writer{fnv.New64a()}
	u64(f, uint64(r.Schema.Len()))
	for i := 0; i < r.Schema.Len(); i++ {
		col := r.Schema.Column(i)
		str(f, col.Name)
		u64(f, uint64(col.Kind))
	}
	var rows uint64
	for _, t := range r.Tuples {
		tf := writer{fnv.New64a()}
		for _, v := range t {
			u64(tf, uint64(v.Kind()))
			str(tf, v.String())
		}
		rows += tf.h.Sum64()
	}
	out := writer{fnv.New64a()}
	u64(out, f.h.Sum64())
	u64(out, uint64(r.Cardinality()))
	u64(out, rows)
	return out.h.Sum64()
}

// referenceWriteCSV is WriteCSV as it stood on encoding/csv (with the
// lone-empty-field rule), the oracle for the append-only writer.
func referenceWriteCSV(w io.Writer, r *relation.Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema.Len())
	for i := range header {
		c := r.Schema.Column(i)
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, r.Schema.Len())
	for _, t := range r.Tuples {
		for i, v := range t {
			rec[i] = v.String()
		}
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func col(name string, k relation.Kind) relation.Column { return relation.Column{Name: name, Kind: k} }

// hashGoldens are hand-built relations with the ContentHash the parent
// implementation (PR 14's tree) computed for them.
func hashGoldens() []struct {
	name string
	rel  *relation.Relation
	want uint64
} {
	mk := func(cols []relation.Column, rows ...relation.Tuple) *relation.Relation {
		r := relation.New("g", relation.MustSchema(cols...))
		r.Tuples = rows
		return r
	}
	all := []relation.Column{col("i", relation.KindInt), col("f", relation.KindFloat),
		col("s", relation.KindString), col("t", relation.KindTime), col("n", relation.KindNull)}
	null := relation.Null()
	return []struct {
		name string
		rel  *relation.Relation
		want uint64
	}{
		{"zero columns, zero rows", mk(nil), 0xf6fd75665dae218c},
		{"zero columns, two rows", mk(nil, relation.Tuple{}, relation.Tuple{}), 0x438e260bad85dd40},
		{"zero rows", mk(all), 0x3eb71894a08905e6},
		{"null in every kind of column", mk(all, relation.Tuple{null, null, null, null, null}), 0x2584991c75d9ab09},
		{"ints", mk([]relation.Column{col("i", relation.KindInt)},
			relation.Tuple{relation.Int(0)}, relation.Tuple{relation.Int(-1)}, relation.Tuple{relation.Int(99)},
			relation.Tuple{relation.Int(100)}, relation.Tuple{relation.Int(math.MaxInt64)},
			relation.Tuple{relation.Int(math.MinInt64)}, relation.Tuple{relation.Int(-1234567890123456789)}), 0xa03109d11148e624},
		{"floats", mk([]relation.Column{col("f", relation.KindFloat)},
			relation.Tuple{relation.Float(0)}, relation.Tuple{relation.Float(math.Copysign(0, -1))},
			relation.Tuple{relation.Float(1e21)}, relation.Tuple{relation.Float(1e20)}, relation.Tuple{relation.Float(0.1)},
			relation.Tuple{relation.Float(math.NaN())}, relation.Tuple{relation.Float(math.Inf(1))},
			relation.Tuple{relation.Float(math.Inf(-1))}, relation.Tuple{relation.Float(math.SmallestNonzeroFloat64)},
			relation.Tuple{relation.Float(-math.MaxFloat64)}), 0x42f2ab55595198a4},
		{"strings", mk([]relation.Column{col("s", relation.KindString)},
			relation.Tuple{relation.Str("")}, relation.Tuple{relation.Str("a")}, relation.Tuple{relation.Str("héllo, wörld ✓")},
			relation.Tuple{relation.Str("line\nbreak\r\"quoted\"")}, relation.Tuple{relation.Str(string(make([]byte, 300)))},
			relation.Tuple{relation.Str("\xff\xfe not utf8")}), 0x3b02cdf18c95cebb},
		{"interned and plain strings with equal text", mk([]relation.Column{col("s", relation.KindString)},
			relation.Tuple{relation.Str("bs0007")}, relation.Tuple{relation.InternedStr("bs0007", 7)},
			relation.Tuple{relation.InternedStr("", 0)}), 0x84d7c41d8ff3b5e9},
		{"times", mk([]relation.Column{col("t", relation.KindTime)},
			relation.Tuple{relation.TimeUnix(0)}, relation.Tuple{relation.TimeUnix(-86400)},
			relation.Tuple{relation.TimeUnix(1348704000)}), 0xcabab17d4dacfcd0},
		{"mixed row, values against their column's kind", mk(all,
			relation.Tuple{relation.Int(7), relation.Float(2.5), relation.Str("x"), relation.TimeUnix(60), null},
			relation.Tuple{relation.Str("7"), relation.Int(2), relation.Float(1), null, relation.Int(60)},
			relation.Tuple{relation.Int(7), relation.Float(2.5), relation.Str("x"), relation.TimeUnix(60), null}), 0xf53b4a81ec9d12a5},
	}
}

func TestContentHashGolden(t *testing.T) {
	for _, g := range hashGoldens() {
		if ref := referenceContentHash(g.rel); ref != g.want {
			t.Errorf("%s: reference implementation gives %#016x, pinned %#016x", g.name, ref, g.want)
		}
		if got := relation.ContentHash(g.rel); got != g.want {
			t.Errorf("%s: ContentHash = %#016x, pinned %#016x", g.name, got, g.want)
		}
	}
}

// mobileRows is a relation of n generated call records, wide enough
// (three copies side by side) to look like a join result.
func mobileRows(n int) *relation.Relation {
	cfg := workloads.DefaultMobileConfig()
	cfg.Tuples = n
	calls := workloads.MobileTable(cfg)
	s := calls.Schema.Concat("t1.", calls.Schema, "t2.").Concat("", calls.Schema, "t3.")
	out := relation.New("wide", s)
	for i, t := range calls.Tuples {
		row := append(append(append(relation.Tuple{}, t...), calls.Tuples[(i+1)%n]...), calls.Tuples[(i+7)%n]...)
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// TestContentHashSharded: the value equals the per-row reference on
// generated rows, whatever GOMAXPROCS (hence the shard count) is and
// whatever order the rows are in. The relation is large enough to be
// hashed in shards; the race detector watches the workers.
func TestContentHashSharded(t *testing.T) {
	r := mobileRows(20000)
	want := referenceContentHash(r)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := relation.ContentHash(r); got != want {
			t.Errorf("GOMAXPROCS %d: ContentHash = %#016x, reference %#016x", procs, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(r.Tuples), func(i, j int) { r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i] })
	if got := relation.ContentHash(r); got != want {
		t.Errorf("after shuffling the rows: ContentHash = %#016x, want %#016x", got, want)
	}
	r.Tuples[0] = r.Tuples[1]
	if got := relation.ContentHash(r); got == want {
		t.Errorf("replacing a row left the hash at %#016x", got)
	}
}

// TestWriteCSVMatchesEncodingCSV pins the writer to encoding/csv's
// output on every quoting trigger and on the lone-empty-field row.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	str := func(vals ...string) *relation.Relation {
		r := relation.New("s", relation.MustSchema(col("s", relation.KindString), col("n", relation.KindInt)))
		for i, v := range vals {
			r.Tuples = append(r.Tuples, relation.Tuple{relation.Str(v), relation.Int(int64(i))})
		}
		return r
	}
	one := func(c relation.Column, vals ...relation.Value) *relation.Relation {
		r := relation.New("one", relation.MustSchema(c))
		for _, v := range vals {
			r.Tuples = append(r.Tuples, relation.Tuple{v})
		}
		return r
	}
	cases := []struct {
		name string
		rel  *relation.Relation
		want string // "" = only compared with the reference
	}{
		{"plain", str("a", "b c"), "s:string,n:int\na,0\nb c,1\n"},
		{"empty field is not quoted", str(""), "s:string,n:int\n,0\n"},
		{"postgres end-of-data marker", str(`\.`, `\.x`), "s:string,n:int\n\"\\.\",0\n\\.x,1\n"},
		{"delimiter", str("a,b"), "s:string,n:int\n\"a,b\",0\n"},
		{"quote", str(`say "hi"`, `"`), "s:string,n:int\n\"say \"\"hi\"\"\",0\n\"\"\"\",1\n"},
		{"CR and LF", str("a\rb", "a\nb", "a\r\nb"), "s:string,n:int\n\"a\rb\",0\n\"a\nb\",1\n\"a\r\nb\",2\n"},
		{"leading space, ASCII and not", str(" a", "\ta", "\u00a0a", "\u2003a", "a "), ""},
		{"invalid UTF-8 first byte", str("\xffa", "\xc2"), ""},
		{"one column: NULL and empty string rows survive", one(col("k", relation.KindString), relation.Null(), relation.Str(""), relation.Str("x")),
			"k:string\n\"\"\n\"\"\nx\n"},
		{"one column of another kind", one(col("n", relation.KindInt), relation.Null(), relation.Int(-3)), "n:int\n\"\"\n-3\n"},
		{"numbers and times", one(col("f", relation.KindFloat), relation.Float(1e21), relation.Float(math.NaN()),
			relation.Float(math.Inf(1)), relation.Float(math.Copysign(0, -1)), relation.Int(math.MinInt64), relation.TimeUnix(-5)), ""},
		{"header names that need quotes", relation.New("h", relation.MustSchema(col("a,b", relation.KindInt), col(" c", relation.KindString), col(`d"e`, relation.KindNull))), ""},
		{"zero columns", func() *relation.Relation {
			r := relation.New("z", relation.MustSchema())
			r.Tuples = []relation.Tuple{{}, {}}
			return r
		}(), "\n\n\n"},
		{"rows beyond one buffer", mobileRows(3000), ""},
	}
	for _, c := range cases {
		var got, ref bytes.Buffer
		if err := relation.WriteCSV(&got, c.rel); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := referenceWriteCSV(&ref, c.rel); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Errorf("%s: WriteCSV differs from encoding/csv\n got: %q\nwant: %q", c.name, clip(got.String()), clip(ref.String()))
		}
		if c.want != "" && got.String() != c.want {
			t.Errorf("%s:\n got: %q\nwant: %q", c.name, got.String(), c.want)
		}
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestWriteCSVReportsWriteError(t *testing.T) {
	r := mobileRows(3000)
	for _, after := range []int{0, 100 << 10} {
		if err := relation.WriteCSV(&failingWriter{after: after}, r); err != io.ErrShortWrite {
			t.Errorf("writer failing after %d bytes: err = %v, want %v", after, err, io.ErrShortWrite)
		}
	}
}

// benchRows is the micro-benchmarks' input: ~100 k rows × 18 values,
// the shape of the output-heavy benchmark workload's result.
const benchRows = 100_000

var benchSink uint64

func BenchmarkContentHash(b *testing.B) {
	r := mobileRows(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += relation.ContentHash(r)
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkWriteCSV(b *testing.B) {
	r := mobileRows(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := relation.WriteCSV(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkReadCSV(b *testing.B) {
	var csvText bytes.Buffer
	if err := relation.WriteCSV(&csvText, mobileRows(benchRows)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(csvText.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := relation.ReadCSV(bytes.NewReader(csvText.Bytes()), "wide")
		if err != nil || r.Cardinality() != benchRows {
			b.Fatal(r.Cardinality(), err)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
