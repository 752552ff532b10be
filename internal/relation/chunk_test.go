package relation

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"testing"
)

// chunkTestRelation builds a relation exercising every layout path:
// interned and plain strings, NULLs in every column, a mixed-kind
// exception row (a string in the int column), negative zero, and a
// cardinality (10) that straddles chunk edges at rowsPerChunk 3.
func chunkTestRelation(t *testing.T) *Relation {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "score", Kind: KindFloat},
		Column{Name: "city", Kind: KindString},
		Column{Name: "note", Kind: KindString},
		Column{Name: "ts", Kind: KindTime},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDict([]string{"amsterdam", "beijing", "chicago", "delhi"})
	r := New("probe", schema)
	r.Dicts = []*Dict{nil, nil, d, nil, nil}
	interned := func(s string) Value {
		c, ok := d.Code(s)
		if !ok {
			t.Fatalf("not a dict member: %q", s)
		}
		return InternedStr(s, c)
	}
	r.Tuples = []Tuple{
		{Int(1), Float(1.5), interned("beijing"), Str("plain one"), TimeUnix(100)},
		{Int(2), Float(-0.0), interned("amsterdam"), Str(""), TimeUnix(200)},
		{Null(), Float(2.25), interned("delhi"), Null(), Null()},
		{Int(4), Null(), Str("zurich"), Str("post-intern append"), TimeUnix(400)},
		{Int(5), Float(math.MaxFloat64), interned("chicago"), Str("x"), TimeUnix(-5)},
		{Str("oops"), Float(-3.5), Null(), Str("mixed-kind row"), TimeUnix(600)},
		{Int(7), Float(0), interned("beijing"), Str("seven"), TimeUnix(700)},
		{Int(-8), Float(8.125), interned("delhi"), Null(), TimeUnix(800)},
		{Int(9), Float(9), Str("unseen"), Str("nine"), TimeUnix(900)},
		{Int(10), Float(10.5), interned("amsterdam"), Str("ten"), TimeUnix(1000)},
	}
	return r
}

// requireValueIdentical asserts bit-identity: same kind, same payload,
// same dictionary code slot — and therefore same EncodedSize.
func requireValueIdentical(t *testing.T, got, want Value, where string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: value %#v != %#v", where, got, want)
	}
	if got.EncodedSize() != want.EncodedSize() {
		t.Fatalf("%s: EncodedSize %d != %d", where, got.EncodedSize(), want.EncodedSize())
	}
}

func requireTuplesIdentical(t *testing.T, got, want []Tuple, where string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", where, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: tuple %d arity %d, want %d", where, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			requireValueIdentical(t, got[i][j], want[i][j], where)
		}
	}
}

// TestChunkRoundTrip: columnar chunks reconstruct every row
// bit-identically through row views, across chunk edges, and their
// byte accounting matches the row representation.
func TestChunkRoundTrip(t *testing.T) {
	r := chunkTestRelation(t)
	for _, per := range []int{1, 3, 4, 10, 100} {
		chunks := ChunksOf(r, per)
		wantChunks := (len(r.Tuples) + per - 1) / per
		if len(chunks) != wantChunks {
			t.Fatalf("per=%d: %d chunks, want %d", per, len(chunks), wantChunks)
		}
		var rows []Tuple
		var bytes int64
		for _, c := range chunks {
			bytes += c.EncodedBytes()
			for i := 0; i < c.Rows(); i++ {
				rows = append(rows, c.Row(i))
			}
		}
		requireTuplesIdentical(t, rows, r.Tuples, "chunks")
		var want int64
		for _, tup := range r.Tuples {
			want += int64(tup.EncodedSize())
		}
		if bytes != want {
			t.Fatalf("per=%d: chunk bytes %d, want %d", per, bytes, want)
		}
		// The lazy stream yields the same rows.
		it := r.ChunkStream(per)
		var streamed []Tuple
		for {
			c, err := it.NextChunk()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.Rows(); i++ {
				streamed = append(streamed, c.Row(i))
			}
		}
		requireTuplesIdentical(t, streamed, r.Tuples, "stream")
	}
}

// TestStandaloneChunkFrame: the headerless single-frame encode the dfs
// block store uses round-trips bit-identically, dictionary slots
// included — the "dictionary codes survive spill-to-disk and reload"
// contract.
func TestStandaloneChunkFrame(t *testing.T) {
	r := chunkTestRelation(t)
	for _, c := range ChunksOf(r, 4) {
		var buf bytes.Buffer
		if err := EncodeChunk(&buf, c, r.Dicts); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeChunk(&buf, r.Schema, r.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != c.Rows() || got.EncodedBytes() != c.EncodedBytes() {
			t.Fatalf("frame: rows/bytes %d/%d, want %d/%d",
				got.Rows(), got.EncodedBytes(), c.Rows(), c.EncodedBytes())
		}
		for i := 0; i < c.Rows(); i++ {
			wantRow, gotRow := c.Row(i), got.Row(i)
			for j := range wantRow {
				requireValueIdentical(t, gotRow[j], wantRow[j], "frame row")
			}
		}
	}
}

// TestRawValueCodec: the self-describing raw layout preserves
// dictionary code slots without dictionary context.
func TestRawValueCodec(t *testing.T) {
	vals := []Value{
		Null(),
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(-0.0), Float(3.5), Float(math.Inf(-1)),
		Str(""), Str("plain"),
		InternedStr("member", 0), InternedStr("big-code", 1<<20),
		TimeUnix(0), TimeUnix(-12345),
	}
	var raw []byte
	for _, v := range vals {
		raw = AppendValueRaw(raw, v)
	}
	br := bufio.NewReader(bytes.NewReader(raw))
	for _, want := range vals {
		got, err := ReadValueRaw(br)
		if err != nil {
			t.Fatal(err)
		}
		requireValueIdentical(t, got, want, "raw value")
	}
	if _, err := ReadValueRaw(br); err != io.EOF {
		t.Fatalf("expected EOF after last value, got %v", err)
	}

	tup := Tuple{Int(7), InternedStr("x", 3), Null(), Float(1.25)}
	gotTup, rest, err := DecodeTupleRaw(AppendTupleRaw(nil, tup))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	requireTuplesIdentical(t, []Tuple{gotTup}, []Tuple{tup}, "raw tuple")
}

// TestChunkKeyExtraction: columnar key extraction agrees with the
// per-value sort-key extractors on every row, fast paths and
// fallbacks alike.
func TestChunkKeyExtraction(t *testing.T) {
	r := chunkTestRelation(t)
	d := r.DictOf(2)
	for _, c := range ChunksOf(r, 3) {
		for _, off := range []float64{0, 2, -3, 0.5} {
			intKeys := c.AppendIntKeys(0, off, nil)
			floatKeys := c.AppendFloatKeys(1, off, nil)
			timeKeys := c.AppendFloatKeys(4, off, nil)
			for i := 0; i < c.Rows(); i++ {
				if want := SortKeyInt(c.Value(i, 0), off); intKeys[i] != want {
					t.Fatalf("int key row %d off %v: %d != %d", i, off, intKeys[i], want)
				}
				if want := SortKeyFloat(c.Value(i, 1), off); floatKeys[i] != want {
					t.Fatalf("float key row %d off %v: %d != %d", i, off, floatKeys[i], want)
				}
				if want := SortKeyFloat(c.Value(i, 4), off); timeKeys[i] != want {
					t.Fatalf("time key row %d off %v: %d != %d", i, off, timeKeys[i], want)
				}
			}
		}
		for _, direct := range []bool{true, false} {
			keys := c.AppendDictKeys(2, d, direct, nil)
			for i := 0; i < c.Rows(); i++ {
				v := c.Value(i, 2)
				var want int64
				switch {
				case v.IsNull():
					want = NullSortKey
				default:
					if code, ok := v.DictCode(); direct && ok {
						want = CodeKey(code)
					} else {
						want = d.ProbeKey(v.Str())
					}
				}
				if keys[i] != want {
					t.Fatalf("dict key row %d direct=%v: %d != %d", i, direct, keys[i], want)
				}
			}
		}
	}
}
