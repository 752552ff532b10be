package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRawValueCodec: the self-describing raw layout preserves every
// kind of value, dictionary code slots included, without dictionary
// context, and a tuple cut short anywhere is an error, never a shorter
// tuple.
func TestRawValueCodec(t *testing.T) {
	vals := Tuple{
		Null(),
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(3.5), Float(math.Inf(-1)),
		Str(""), Str("plain"),
		InternedStr("member", 0), InternedStr("big-code", 1<<20),
		TimeUnix(0), TimeUnix(-12345),
	}
	raw := AppendTupleRaw(nil, vals)
	got, rest, err := DecodeTupleRaw(raw)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i, want := range vals {
		if !Identical(got[i], want) || got[i].EncodedSize() != want.EncodedSize() {
			t.Fatalf("raw value %d: %q %#v (%d B) != %q %#v (%d B)", i,
				got[i], got[i], got[i].EncodedSize(), want, want, want.EncodedSize())
		}
	}

	// Truncation: nothing after the last value, and every other proper
	// prefix, down to the empty input.
	for n := 0; n < len(raw); n++ {
		if _, _, err := DecodeTupleRaw(raw[:n]); !errors.Is(err, errRawTuple) {
			t.Fatalf("%d of %d bytes: err = %v, want errRawTuple", n, len(raw), err)
		}
	}
	// An arity that promises one value more than the bytes hold.
	short := AppendTupleRaw(nil, Tuple{Int(7), Null()})
	short[0]++
	if _, _, err := DecodeTupleRaw(short); !errors.Is(err, errRawTuple) {
		t.Fatalf("value past the end: err = %v, want errRawTuple", err)
	}

	// The decoder stops at the tuple's end and hands back what follows.
	tup := Tuple{Int(7), InternedStr("x", 3), Null(), Float(1.25)}
	two := AppendTupleRaw(AppendTupleRaw(nil, tup), Tuple{})
	first, rest, err := DecodeTupleRaw(two)
	if err != nil || len(first) != len(tup) || len(rest) != 1 {
		t.Fatalf("decode: %v, arity %d, %d bytes left", err, len(first), len(rest))
	}
	for i, want := range tup {
		if !Identical(first[i], want) {
			t.Fatalf("raw tuple value %d: %q %#v != %q %#v", i, first[i], first[i], want, want)
		}
	}
	if empty, rest, err := DecodeTupleRaw(rest); err != nil || len(empty) != 0 || len(rest) != 0 {
		t.Fatalf("empty tuple: %v, arity %d, %d bytes left", err, len(empty), len(rest))
	}
}

// TestReadCSVRowsAreIsolated: ReadCSV carves a block's rows from one
// slab, as mr's EmitConcat carves output rows from chunks, so the same
// must hold of them — a row's capacity ends with the row, and an append
// to one reallocates instead of overwriting the next.
func TestReadCSVRowsAreIsolated(t *testing.T) {
	for _, rows := range []int{1, 40, 5000} {
		var in strings.Builder
		in.WriteString("id:int,name:string,score:float\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&in, "%d,n%d,%d.5\n", i, i%97, i)
		}
		rel, err := ReadCSV(strings.NewReader(in.String()), "R")
		if err != nil || len(rel.Tuples) != rows {
			t.Fatalf("%d rows: read %d, %v", rows, len(rel.Tuples), err)
		}
		check := func(when string) {
			t.Helper()
			for i, row := range rel.Tuples {
				want := Tuple{Int(int64(i)), Str(fmt.Sprintf("n%d", i%97)), Float(float64(i) + 0.5)}
				if !slices.EqualFunc(row, want, Identical) {
					t.Fatalf("%d rows, %s: row %d is %v, want %v", rows, when, i, row, want)
				}
			}
		}
		check("as read")
		for i, row := range rel.Tuples {
			if cap(row) != len(row) {
				t.Fatalf("%d rows: row %d has cap %d, len %d", rows, i, cap(row), len(row))
			}
			grown := append(row, Str("clobber"))
			grown[len(grown)-1] = Str("clobber again")
		}
		check("after appending to every row")
	}
}

// TestRawCodeSlotKeepsSignedReading: the code slot is stored as the
// word the frame carried, but read as signed — a slot above MaxInt64
// (no Dict assigns one; only foreign bytes hold it) is "not interned"
// to DictCode and EncodedSize, and is written back unchanged.
func TestRawCodeSlotKeepsSignedReading(t *testing.T) {
	raw := []byte{1, byte(KindString)}
	raw = binary.AppendUvarint(raw, math.MaxInt64+2)
	raw = append(binary.LittleEndian.AppendUint32(raw, 2), "hi"...)
	got, rest, err := DecodeTupleRaw(raw)
	if err != nil || len(rest) != 0 || len(got) != 1 {
		t.Fatalf("decode: %v, %d values, %d bytes left", err, len(got), len(rest))
	}
	v := got[0]
	if code, ok := v.DictCode(); ok || v.Str() != "hi" || v.EncodedSize() != 1+4+2 || Identical(v, Str("hi")) {
		t.Errorf("slot above MaxInt64: DictCode %d, %v; %q of %d modeled bytes", code, ok, v.Str(), v.EncodedSize())
	}
	if back := AppendTupleRaw(nil, got); !bytes.Equal(back, raw) {
		t.Errorf("re-encoded as % x, want % x", back, raw)
	}
}
