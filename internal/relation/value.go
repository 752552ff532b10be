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
// and it has exactly two encodings, both in codec.go: CSV with a typed
// header (WriteCSV/ReadCSV) is what users load and save; the raw tuple
// codec (AppendTupleRaw/DecodeTupleRaw) is what the engine writes to
// disk — mr's spill runs, dfs's checkpoints. The raw codec round-trips
// a Value bit-identically, dictionary code slot included; CSV carries
// no dictionaries, which DB.Analyze rebuilds after a load.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"time"
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
// Values are compact (no interface boxing) because the simulator keeps
// millions of them in memory during an experiment sweep.
type Value struct {
	kind Kind
	i    int64 // KindInt and KindTime (unix seconds)
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string value. (The name avoids a clash with the
// fmt.Stringer method on Value; the accessor counterpart is Value.Str.)
func Str(v string) Value { return Value{kind: KindString, s: v} }

// InternedStr returns a string value carrying its order-preserving
// dictionary code (see Dict). The code rides in the otherwise unused
// integer payload as code+1, so the zero payload still means "not
// interned" and the struct does not grow. Interned and plain string
// values compare identically (Compare, Equal and String use the string
// payload); the code only changes EncodedSize and enables the
// dictionary key fast path.
func InternedStr(s string, code int64) Value {
	return Value{kind: KindString, s: s, i: code + 1}
}

// Time returns a time value with second precision.
func Time(t time.Time) Value { return Value{kind: KindTime, i: t.Unix()} }

// TimeUnix returns a time value from unix seconds.
func TimeUnix(sec int64) Value { return Value{kind: KindTime, i: sec} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload. It is valid for KindInt and
// KindTime, and truncates KindFloat. String values return 0 (their
// integer payload is the dictionary code slot, see InternedStr).
func (v Value) Int64() int64 {
	switch v.kind {
	case KindFloat:
		return int64(v.f)
	case KindString:
		return 0
	default:
		return v.i
	}
}

// DictCode returns the dictionary code an interned string value
// carries (see InternedStr and Dict), or false for NULL, non-string
// and non-interned values. The code is only meaningful relative to the
// dictionary of the column the value came from; callers must verify
// dictionary identity before comparing codes across relations.
func (v Value) DictCode() (int64, bool) {
	if v.kind == KindString && v.i > 0 {
		return v.i - 1, true
	}
	return 0, false
}

// Float64 returns the numeric payload as a float. It is valid for
// KindInt, KindFloat and KindTime.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindTime:
		return float64(v.i)
	default:
		return 0
	}
}

// Str returns the string payload (empty for non-string kinds).
func (v Value) Str() string { return v.s }

// AsTime returns the time payload for KindTime values.
func (v Value) AsTime() time.Time { return time.Unix(v.i, 0).UTC() }

// String renders the value the way the CSV codec writes it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return strconv.FormatInt(v.i, 10)
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
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
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
			case a.i < b.i:
				return -1
			case a.i > b.i:
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
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	}
	// Mixed string/numeric: numeric first.
	if a.kind == KindString {
		return 1
	}
	return -1
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Add returns a numeric value shifted by the given constant. It is used
// to evaluate conditions of the form "R.a + c < S.b". String values are
// returned unchanged.
func (v Value) Add(c float64) Value {
	switch v.kind {
	case KindInt:
		if c == math.Trunc(c) {
			return Int(v.i + int64(c))
		}
		return Float(float64(v.i) + c)
	case KindFloat:
		return Float(v.f + c)
	case KindTime:
		return TimeUnix(v.i + int64(c))
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
		if v.i > 0 {
			return 1 + uvarintLen(uint64(v.i))
		}
		return 1 + 4 + len(v.s)
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
