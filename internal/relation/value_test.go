package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("x"), KindString},
		{TimeUnix(100), KindTime},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if Int(1).IsNull() {
		t.Error("Int(1).IsNull() = true")
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(7).Int64(); got != 7 {
		t.Errorf("Int(7).Int64() = %d", got)
	}
	if got := Float(2.5).Int64(); got != 2 {
		t.Errorf("Float(2.5).Int64() = %d, want 2", got)
	}
	if got := Int(7).Float64(); got != 7.0 {
		t.Errorf("Int(7).Float64() = %v", got)
	}
	if got := Str("hi").Str(); got != "hi" {
		t.Errorf("Str() = %q", got)
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2), Int(2), 0},
		{TimeUnix(5), TimeUnix(9), -1},
		{TimeUnix(5), Int(5), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Int(1), Str("a"), -1}, // numeric before string
		{Str("a"), Int(1), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(int64(rng.Intn(100) - 50))
		case 1:
			return Float(rng.Float64()*100 - 50)
		case 2:
			return Str(string(rune('a' + rng.Intn(26))))
		default:
			return TimeUnix(int64(rng.Intn(1000)))
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randVal(), randVal()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]Value, 60)
	for i := range vals {
		switch rng.Intn(3) {
		case 0:
			vals[i] = Int(int64(rng.Intn(20)))
		case 1:
			vals[i] = Float(float64(rng.Intn(20)))
		default:
			vals[i] = Str(string(rune('a' + rng.Intn(5))))
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but a > c", a, b, c)
				}
			}
		}
	}
}

func TestValueAdd(t *testing.T) {
	if got := Int(5).Add(3); Compare(got, Int(8)) != 0 {
		t.Errorf("Int(5).Add(3) = %v", got)
	}
	if got := Int(5).Add(0.5); Compare(got, Float(5.5)) != 0 {
		t.Errorf("Int(5).Add(0.5) = %v", got)
	}
	if got := Float(1.25).Add(0.25); Compare(got, Float(1.5)) != 0 {
		t.Errorf("Float add = %v", got)
	}
	if got := TimeUnix(100).Add(60); got.Kind() != KindTime || got.Int64() != 160 {
		t.Errorf("TimeUnix add = %v", got)
	}
	if got := Str("x").Add(1); got.Str() != "x" {
		t.Errorf("String add mutated: %v", got)
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{Int(-12), Float(3.25), Str("hello, world"), TimeUnix(1349049600), Null()}
	kinds := []Kind{KindInt, KindFloat, KindString, KindTime, KindInt}
	for i, v := range vals {
		got, err := ParseValue(kinds[i], v.String())
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", kinds[i], v.String(), err)
		}
		if v.IsNull() {
			if !got.IsNull() {
				t.Errorf("null roundtrip = %v", got)
			}
			continue
		}
		if Compare(got, v) != 0 {
			t.Errorf("roundtrip %v -> %v", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue(KindInt, "xyz"); err == nil {
		t.Error("ParseValue(int, xyz) succeeded")
	}
	if _, err := ParseValue(KindFloat, "1.2.3"); err == nil {
		t.Error("ParseValue(float, 1.2.3) succeeded")
	}
	if _, err := ParseValue(Kind(99), "1"); err == nil {
		t.Error("ParseValue(kind 99) succeeded")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindTime} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded")
	}
}

func TestEncodedSize(t *testing.T) {
	if got := Null().EncodedSize(); got != 1 {
		t.Errorf("null size = %d", got)
	}
	if got := Int(1).EncodedSize(); got != 9 {
		t.Errorf("int size = %d", got)
	}
	if got := Str("abcd").EncodedSize(); got != 9 {
		t.Errorf("string size = %d, want 9", got)
	}
	tup := Tuple{Int(1), Str("ab")}
	want := 4 + 9 + (1 + 4 + 2)
	if got := tup.EncodedSize(); got != want {
		t.Errorf("tuple size = %d, want %d", got, want)
	}
}

func TestIntCompareQuick(t *testing.T) {
	f := func(a, b int64) bool {
		got := Compare(Int(a), Int(b))
		switch {
		case a < b:
			return got == -1
		case a > b:
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueLayout pins the shape the type comment argues for: 24 bytes
// in at most four fields (what keeps a Value in registers), NULL as the
// zero value, and the empty string — whose data pointer is unspecified
// — surviving the CSV codec.
func TestValueLayout(t *testing.T) {
	typ := reflect.TypeOf(Value{})
	if typ.Size() != 24 || typ.NumField() > 4 {
		t.Errorf("Value is %d bytes in %d fields, want 24 in at most 4", typ.Size(), typ.NumField())
	}
	var zero Value
	if !zero.IsNull() || !Identical(zero, Null()) || zero.Str() != "" || zero.EncodedSize() != 1 {
		t.Errorf("the zero Value is %#v, want NULL", zero)
	}

	empties := Tuple{Str(""), InternedStr("", 0), InternedStr("", 41), Str(string([]byte{})), Str("x"[1:])}
	for _, cols := range []int{1, 3} {
		columns := make([]Column, cols)
		row := make(Tuple, cols)
		for i := range columns {
			columns[i], row[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: KindString}, empties[i]
		}
		rel := New("E", MustSchema(columns...))
		rel.Tuples = []Tuple{row, row}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, "E")
		if err != nil || len(back.Tuples) != 2 {
			t.Fatalf("%d columns: csv round trip: %v, %d rows", cols, err, len(back.Tuples))
		}
		for _, r := range back.Tuples {
			for _, v := range r { // CSV carries no dictionary: every cell reads back plain
				if !Identical(v, Str("")) {
					t.Errorf("%d columns: csv round trip of an empty string: %#v", cols, v)
				}
			}
		}
	}
}

// TestIdentical: bit identity is stricter than Equal and looks at
// string contents, not addresses. The last case is the one == and
// reflect.DeepEqual get wrong on this layout: DeepEqual follows the
// data pointer and compares the one byte it points at.
func TestIdentical(t *testing.T) {
	nan := Float(math.NaN())
	same := [][2]Value{
		{Null(), Value{}},
		{Int(-3), Int(-3)},
		{nan, nan},
		{Str("abc"), Str(string([]byte("abc")))}, // equal bytes at two addresses
		{InternedStr("abc", 7), InternedStr(string([]byte("abc")), 7)},
		{Str(""), Str("abc"[3:])},
	}
	for _, c := range same {
		if !Identical(c[0], c[1]) || !Identical(c[1], c[0]) {
			t.Errorf("Identical(%#v, %#v) = false", c[0], c[1])
		}
	}
	differ := [][2]Value{
		{Float(0), Float(math.Copysign(0, -1))}, // Equal, but not the same bits
		{Int(1), TimeUnix(1)},
		{Int(0), Null()},
		{Str("abc"), InternedStr("abc", 0)},
		{InternedStr("abc", 1), InternedStr("abc", 2)},
		{Str("abc"), Str("abcd")},
		{Str("abc"), Str("abd")},
	}
	for _, c := range differ {
		if Identical(c[0], c[1]) || Identical(c[1], c[0]) {
			t.Errorf("Identical(%#v, %#v) = true", c[0], c[1])
		}
	}
	// Same length, same first byte, same code slot.
	if a, b := InternedStr("abc", 5), InternedStr("abd", 5); Identical(a, b) || !reflect.DeepEqual(a, b) {
		t.Errorf("abc vs abd: Identical %v (want false), reflect.DeepEqual %v (true: why tests must not use it)",
			Identical(a, b), reflect.DeepEqual(a, b))
	}
	if Compare(differ[0][0], differ[0][1]) != 0 || Compare(differ[3][0], differ[3][1]) != 0 {
		t.Error("-0 vs +0 and interned vs plain must stay Equal under Compare")
	}
}

// TestAppendIntMatchesStrconv: ints and times render as
// strconv.AppendInt renders them, at every length and both signs, at the
// extremes, and behind existing bytes of dst, with or without room.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, 1, -1, 9, -9, 10, -10, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for p, d := int64(10), 2; d <= 19; p, d = p*10, d+1 { // both sides of every length
		vals = append(vals, p-1, p, p+1, -(p - 1), -p, -(p + 1))
	}
	rng := rand.New(rand.NewSource(17))
	for lo, d := int64(1), 1; d <= 19; lo, d = lo*10, d+1 { // 50 values of every length
		for i := 0; i < 50; i++ {
			v := lo + rng.Int63n(min(9*lo, math.MaxInt64-lo))
			vals = append(vals, v, -v)
		}
	}
	for _, v := range vals {
		want := strconv.AppendInt([]byte("x,"), v, 10)
		for _, val := range []Value{Int(v), TimeUnix(v)} {
			for _, room := range []int{0, 40} { // grown, or written in place
				dst := append(make([]byte, 0, 2+room), "x,"...)
				if got := val.AppendString(dst); !bytes.Equal(got, want) {
					t.Fatalf("%v renders %q, strconv %q", val.Kind(), got, want)
				}
			}
			if got := val.String(); got != string(want[2:]) {
				t.Fatalf("%v: String %q, AppendString %q", val.Kind(), got, want[2:])
			}
		}
	}
}
