package relation

import (
	"errors"
	"math"
	"testing"
)

// requireValueIdentical asserts bit-identity: same kind, same payload
// bits (so -0 and NaN count), same dictionary code slot — and therefore
// same EncodedSize.
func requireValueIdentical(t *testing.T, got, want Value, where string) {
	t.Helper()
	if got.kind != want.kind || got.i != want.i || got.s != want.s ||
		math.Float64bits(got.f) != math.Float64bits(want.f) {
		t.Fatalf("%s: value %#v != %#v", where, got, want)
	}
	if got.EncodedSize() != want.EncodedSize() {
		t.Fatalf("%s: EncodedSize %d != %d", where, got.EncodedSize(), want.EncodedSize())
	}
}

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
		requireValueIdentical(t, got[i], want, "raw value")
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
		requireValueIdentical(t, first[i], want, "raw tuple")
	}
	if empty, rest, err := DecodeTupleRaw(rest); err != nil || len(empty) != 0 || len(rest) != 0 {
		t.Fatalf("empty tuple: %v, arity %d, %d bytes left", err, len(empty), len(rest))
	}
}
