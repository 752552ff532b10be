package relation

import (
	"math/rand"
	"strings"
	"testing"
)

// randomWord draws a short lowercase string; the tiny alphabet and
// length keep duplicate and near-miss probes frequent.
func randomWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return string(b)
}

// Dictionary key order must agree with Compare for every pair of which
// at least one side is a member — the contract the KeyDict join fast
// path relies on (the reference dictionary always covers one side).
func TestDictKeyOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	members := make([]string, 40)
	for i := range members {
		members[i] = randomWord(rng)
	}
	d := NewDict(members)
	pool := []Value{Null()}
	for _, s := range members {
		pool = append(pool, Str(s))
	}
	for i := 0; i < 120; i++ {
		pool = append(pool, Str(randomWord(rng))) // mostly absent probes
	}
	for _, a := range pool {
		aMember := !a.IsNull() && func() bool { _, ok := d.Code(a.Str()); return ok }()
		for _, b := range pool {
			bMember := !b.IsNull() && func() bool { _, ok := d.Code(b.Str()); return ok }()
			if !aMember && !bMember && !(a.IsNull() || b.IsNull()) {
				continue // two absent strings may legitimately collide in a gap
			}
			ka, kb := d.Key(a), d.Key(b)
			want := Compare(a, b)
			got := 0
			if ka < kb {
				got = -1
			} else if ka > kb {
				got = 1
			}
			if got != want {
				t.Fatalf("dict keys disagree with Compare: %v vs %v: key %d, Compare %d", a, b, got, want)
			}
		}
	}
}

func TestDictNullAndCodes(t *testing.T) {
	d := NewDict([]string{"b", "a", "c", "a"}) // dedup + sort
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for i, s := range []string{"a", "b", "c"} {
		c, ok := d.Code(s)
		if !ok || c != int64(i) {
			t.Fatalf("Code(%q) = %d,%v", s, c, ok)
		}
		if d.At(c) != s {
			t.Fatalf("At(%d) = %q", c, d.At(c))
		}
	}
	if _, ok := d.Code("x"); ok {
		t.Fatal("absent string reported as member")
	}
	if d.At(-1) != "" || d.At(3) != "" {
		t.Fatal("out-of-range At not empty")
	}
	if d.Key(Null()) != NullSortKey {
		t.Fatal("NULL key is not NullSortKey")
	}
	if NullSortKey >= d.ProbeKey("") {
		t.Fatal("NULL does not sort below every string key")
	}
}

// Absent probes must land strictly between the neighbouring member
// keys: below the first member, in each gap, above the last.
func TestDictProbeKeyGapPositions(t *testing.T) {
	d := NewDict([]string{"bb", "dd", "ff"})
	cases := []struct {
		probe string
		below string // member the probe sorts below ("" = none)
		above string // member the probe sorts above ("" = none)
	}{
		{"aa", "bb", ""},
		{"cc", "dd", "bb"},
		{"ee", "ff", "dd"},
		{"gg", "", "ff"},
	}
	for _, c := range cases {
		pk := d.ProbeKey(c.probe)
		if pk%2 == 0 {
			t.Fatalf("absent probe %q got even key %d", c.probe, pk)
		}
		if c.below != "" {
			mc, _ := d.Code(c.below)
			if pk >= CodeKey(mc) {
				t.Errorf("probe %q key %d not below member %q key %d", c.probe, pk, c.below, CodeKey(mc))
			}
		}
		if c.above != "" {
			mc, _ := d.Code(c.above)
			if pk <= CodeKey(mc) {
				t.Errorf("probe %q key %d not above member %q key %d", c.probe, pk, c.above, CodeKey(mc))
			}
		}
	}
	// Member probes take the even member key.
	for _, s := range []string{"bb", "dd", "ff"} {
		c, _ := d.Code(s)
		if d.ProbeKey(s) != CodeKey(c) {
			t.Errorf("member probe %q key %d != CodeKey %d", s, d.ProbeKey(s), CodeKey(c))
		}
	}
}

func TestInternStrings(t *testing.T) {
	schema := MustSchema(
		Column{Name: "s", Kind: KindString},
		Column{Name: "n", Kind: KindInt},
	)
	r := New("t", schema)
	words := []string{"pear", "apple", "pear", "fig"}
	for i, w := range words {
		r.MustAppend(Tuple{Str(w), Int(int64(i))})
	}
	r.MustAppend(Tuple{Null(), Int(99)})
	plainSize := r.EncodedSize()
	if err := InternStrings(r); err != nil {
		t.Fatal(err)
	}
	d := r.DictOf(0)
	if d == nil || d.Len() != 3 {
		t.Fatalf("dict = %v", d)
	}
	if r.DictOf(1) != nil {
		t.Fatal("int column grew a dict")
	}
	for i, w := range words {
		v := r.Tuples[i][0]
		if v.Str() != w {
			t.Fatalf("string payload changed: %q", v.Str())
		}
		c, ok := v.DictCode()
		if !ok {
			t.Fatalf("row %d not interned", i)
		}
		if d.At(c) != w {
			t.Fatalf("row %d code %d decodes to %q, want %q", i, c, d.At(c), w)
		}
	}
	if _, ok := r.Tuples[4][0].DictCode(); ok {
		t.Fatal("NULL reported a dict code")
	}
	if r.EncodedSize() >= plainSize {
		t.Errorf("interning did not shrink encoded size: %d -> %d", plainSize, r.EncodedSize())
	}
	// Idempotent: a second pass keeps the same dictionary.
	if err := InternStrings(r); err != nil {
		t.Fatal(err)
	}
	if r.DictOf(0) != d {
		t.Fatal("re-interning replaced the dictionary")
	}
}

// TestInternStringsEmptyAndMistyped: a string column with no non-NULL
// value, and every string column of an empty relation, gets an empty
// dictionary; a non-string value in a string column is an error naming
// the relation, column and row.
func TestInternStringsEmptyAndMistyped(t *testing.T) {
	schema := MustSchema(Column{Name: "s", Kind: KindString}, Column{Name: "n", Kind: KindInt})
	nulls := New("nulls", schema)
	nulls.MustAppend(Tuple{Null(), Int(1)})
	for _, r := range []*Relation{nulls, New("empty", schema)} {
		if err := InternStrings(r); err != nil {
			t.Fatal(err)
		}
		if d := r.DictOf(0); d == nil || d.Len() != 0 {
			t.Errorf("%s: string column has dictionary %v, want an empty one", r.Name, d)
		}
	}
	bad := New("bad", schema)
	bad.MustAppend(Tuple{Str("a"), Int(1)})
	bad.MustAppend(Tuple{Float(2.5), Int(2)})
	err := InternStrings(bad)
	if err == nil || !strings.Contains(err.Error(), "bad.s row 1") {
		t.Fatalf("InternStrings over a float in a string column: %v", err)
	}
}
