// Package relation provides the tabular data model underlying the
// theta-join processor: typed values, schemas, tuples, in-memory
// relations, codecs and the sampling-based statistics the optimizer
// consumes.
//
// The model is deliberately small: four scalar kinds cover every
// attribute used by the paper's workloads (mobile call records, TPC-H
// and flight itineraries), and tuples carry their encoded byte size so
// the MapReduce simulator can account I/O and network volume the same
// way the paper's cost model does.
//
// # String interning
//
// String columns can carry an order-preserving dictionary (Dict,
// built by InternStrings at DB.Analyze time): the column's distinct
// strings get dense codes assigned in
// lexicographic order, each Value embeds its code next to the payload,
// and join conditions over dictionary-backed columns compile to the
// same normalized-int64 sort keys the numeric fast path uses. The
// contract is order preservation — for members a, b of one dictionary,
// sign(Key(a)−Key(b)) == sign(Compare(a, b)) — extended to absent
// probe strings and NULL by the even/odd key scheme documented on
// Dict. The generic relation.Compare fallback still applies whenever
// the contract cannot be established: neither side of a condition
// carries a dictionary (interning disabled, or a relation built
// outside Analyze), the two sides have mixed kinds, or a
// nominally-string column holds non-string values.
//
// # Encodings
//
// Rows ([]Tuple) are the only in-memory representation of a relation,
// and it has exactly one encoding, in codec.go: CSV with a typed header
// (WriteCSV/ReadCSV), what users load and save. Nothing else writes a
// row out: mr's spill runs name rows of the resident inputs by ordinal.
// CSV carries no dictionaries, which DB.Analyze rebuilds after a load.
// The codec works on bytes, in both directions a block at a time on up to
// GOMAXPROCS workers with the blocks kept in order, and is encoding/csv's
// format exactly: that package is imported by the tests only, as the
// reference the writer is held to byte for byte and the reader value
// for value.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindTime
)

// String returns the lower-case kind name used in schema DDL and CSV headers.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name (as produced by Kind.String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "null":
		return KindNull, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "time":
		return KindTime, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown kind %q", s)
	}
}

// Value is a dynamically typed scalar. The zero Value is the SQL NULL.
//
// Layout: 24 bytes in four fields. One payload word w holds the int64
// of an int or time, the IEEE bits of a float, or a string's dictionary
// code slot (code+1, 0 = not interned); a string's bytes are the n
// bytes at p; the kind sits in the padding after n.
//
// The shape is load-bearing, not only the size. The Go compiler keeps a
// struct in registers through Add, Compare and every tuple copy only if
// it is at most 32 bytes in at most four fields; the former 40-byte
// {kind, i, f, s} went through memory at each of those. A fifth field
// of any width loses it again: with a zero-width `_ [0]func()` guard
// added to this layout, Planner.Plan on the benchmark's plan_bound
// inputs read 415 ms against 125 ms (342 ms for the 40-byte form), and
// predicate's BenchmarkSampleSelectivity 10.1 ms/op against 2.4 (6.4).
// TestValueLayout pins the shape, that benchmark shows its loss.
//
// Because p is a pointer, == on two Values compares string addresses,
// not string contents, and reflect.DeepEqual compares one byte. No
// product code compares Values that way (CI type-checks the tree with
// Value made non-comparable, since the guard cannot live here): use
// Compare or Equal for join semantics, Identical for bit identity.
//
// The string is kept as pointer and length rather than a 16-byte string
// header so that the length can share a word with the kind. The two
// unsafe calls that take a string apart and put it back are strValue
// and Value.Str below, and nothing else in the tree imports unsafe. p
// is whatever unsafe.StringData returned, which for an empty string is
// unspecified; it is never dereferenced then, because unsafe.String
// and every loop over the bytes read exactly n of them.
type Value struct {
	w    uint64
	p    *byte
	n    uint32
	kind Kind
}

// maxStringLen is the longest string a Value can hold: the layout keeps
// the length in 32 bits.
const maxStringLen = math.MaxUint32

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// Str returns a string value. (The name avoids a clash with the
// fmt.Stringer method on Value; the accessor counterpart is Value.Str.)
// It panics if v is longer than 4 GiB − 1, the most the layout's length
// field holds; ParseValue, and so ReadCSV, the one source of strings the
// program does not make itself, reports such a field as an error.
func Str(v string) Value { return strValue(v, 0) }

// InternedStr returns a string value carrying its order-preserving
// dictionary code (see Dict). The code rides in the payload word as
// code+1, so the zero payload still means "not interned". Interned and
// plain string values compare identically (Compare, Equal and String
// use the string bytes); the code only changes EncodedSize and enables
// the dictionary key fast path.
func InternedStr(s string, code int64) Value { return strValue(s, uint64(code)+1) }

// strValue is the one place a string becomes a Value: s with its code
// slot, 0 for a plain string and code+1 for an interned one.
func strValue(s string, slot uint64) Value {
	if uint64(len(s)) > maxStringLen {
		panic("relation: string value longer than 4 GiB - 1")
	}
	return Value{kind: KindString, w: slot, p: unsafe.StringData(s), n: uint32(len(s))}
}

// Time returns a time value with second precision.
func Time(t time.Time) Value { return TimeUnix(t.Unix()) }

// TimeUnix returns a time value from unix seconds.
func TimeUnix(sec int64) Value { return Value{kind: KindTime, w: uint64(sec)} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload. It is valid for KindInt and
// KindTime, and truncates KindFloat. String values return 0 (their
// payload word is the dictionary code slot, see InternedStr).
func (v Value) Int64() int64 {
	switch v.kind {
	case KindFloat:
		return int64(v.float())
	case KindString:
		return 0
	default:
		return v.int()
	}
}

// int and float read the payload word as the kind stores it.
func (v Value) int() int64     { return int64(v.w) }
func (v Value) float() float64 { return math.Float64frombits(v.w) }

// DictCode returns the dictionary code an interned string value
// carries (see InternedStr and Dict), or false for NULL, non-string
// and non-interned values. The code is only meaningful relative to the
// dictionary of the column the value came from; callers must verify
// dictionary identity before comparing codes across relations.
func (v Value) DictCode() (int64, bool) {
	if v.kind == KindString && v.int() > 0 {
		return v.int() - 1, true
	}
	return 0, false
}

// Float64 returns the numeric payload as a float. It is valid for
// KindInt, KindFloat and KindTime.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt, KindTime:
		return float64(v.int())
	default:
		return 0
	}
}

// Str returns the string payload (empty for non-string kinds).
func (v Value) Str() string { return unsafe.String(v.p, v.n) }

// AsTime returns the time payload for KindTime values.
func (v Value) AsTime() time.Time { return time.Unix(v.int(), 0).UTC() }

// String renders the value the way the CSV codec writes it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt, KindTime:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.Str()
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.kind))
	}
}

// AppendString appends exactly the bytes of v.String() to dst. The
// result hash, the CSV writer and the reducers' cell-ownership checks
// render every value of a result through it, so it must not allocate.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return dst
	case KindInt, KindTime:
		return strconv.AppendInt(dst, v.int(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	default:
		return append(dst, v.String()...)
	}
}

// numericKinds reports whether both values can be compared numerically.
func numericComparable(a, b Value) bool {
	na := a.kind == KindInt || a.kind == KindFloat || a.kind == KindTime
	nb := b.kind == KindInt || b.kind == KindFloat || b.kind == KindTime
	return na && nb
}

// Compare orders two values. It returns -1, 0, or +1. NULL sorts before
// everything; numeric kinds (int, float, time) compare by magnitude;
// strings compare lexicographically. Comparing a string with a numeric
// kind orders the numeric kind first (deterministic but arbitrary, as
// the planner never produces such comparisons for well-typed queries).
func Compare(a, b Value) int {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0
	case a.kind == KindNull:
		return -1
	case b.kind == KindNull:
		return 1
	}
	if numericComparable(a, b) {
		// Exact path when neither side is a float.
		if a.kind != KindFloat && b.kind != KindFloat {
			switch {
			case a.int() < b.int():
				return -1
			case a.int() > b.int():
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float64(), b.Float64()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.Str(), b.Str())
	}
	// Mixed string/numeric: numeric first.
	if a.kind == KindString {
		return 1
	}
	return -1
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Identical reports bit identity, which is stricter than Equal: the same
// kind, the same payload word (so -0 is not +0, and a NaN is itself),
// the same dictionary code slot (interned is not plain) and the same
// string bytes, wherever each copy of them lives. It is what tests
// compare rows with; == would compare the strings' addresses.
func Identical(a, b Value) bool {
	return a.kind == b.kind && a.w == b.w && a.Str() == b.Str()
}

// Add returns a numeric value shifted by the given constant. It is used
// to evaluate conditions of the form "R.a + c < S.b". String values are
// returned unchanged.
func (v Value) Add(c float64) Value {
	switch v.kind {
	case KindInt:
		if c == math.Trunc(c) {
			return Int(v.int() + int64(c))
		}
		return Float(float64(v.int()) + c)
	case KindFloat:
		return Float(v.float() + c)
	case KindTime:
		return TimeUnix(v.int() + int64(c))
	default:
		return v
	}
}

// EncodedSize returns the modeled wire size of the value: a kind byte
// plus 8 payload bytes for numeric kinds. The MapReduce simulator
// charges I/O and network cost in these units. Interned strings (see
// InternedStr) count as their varint dictionary code — the interning
// win the shuffle-byte accounting measures — while plain strings count
// a u32 length prefix and their bytes.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt, KindFloat, KindTime:
		return 1 + 8
	case KindString:
		if v.int() > 0 {
			return 1 + uvarintLen(v.w)
		}
		return 1 + 4 + int(v.n)
	default:
		return 1
	}
}

// uvarintLen is the byte length of x in unsigned varint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// ParseValue parses the textual form written by Value.String according
// to the expected kind.
func ParseValue(kind Kind, text string) (Value, error) {
	if text == "" && kind != KindString {
		return Null(), nil
	}
	switch kind {
	case KindNull:
		return Null(), nil
	case KindInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse int %q: %w", text, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse float %q: %w", text, err)
		}
		return Float(f), nil
	case KindString:
		if uint64(len(text)) > maxStringLen {
			return Null(), fmt.Errorf("relation: string of %d bytes is longer than a value holds (%d)", len(text), uint64(maxStringLen))
		}
		return Str(text), nil
	case KindTime:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse time %q: %w", text, err)
		}
		return TimeUnix(n), nil
	default:
		return Null(), fmt.Errorf("relation: unknown kind %v", kind)
	}
}
