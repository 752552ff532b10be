package relation

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString},
		Column{Name: "score", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i, ok := s.Lookup("name"); !ok || i != 1 {
		t.Errorf("Lookup(name) = %d, %v", i, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
	if got := s.String(); got != "id:int, name:string, score:float" {
		t.Errorf("String() = %q", got)
	}
	if !s.Equal(testSchema(t)) {
		t.Error("Equal(self-copy) = false")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "a", Kind: KindInt}); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestSchemaConcat(t *testing.T) {
	s := testSchema(t)
	j := s.Concat("l.", s, "r.")
	if j.Len() != 6 {
		t.Fatalf("concat len = %d", j.Len())
	}
	if _, ok := j.Lookup("l.id"); !ok {
		t.Error("missing l.id")
	}
	if _, ok := j.Lookup("r.score"); !ok {
		t.Error("missing r.score")
	}
}

func makeRel(t *testing.T, n int) *Relation {
	t.Helper()
	r := New("test", testSchema(t))
	for i := 0; i < n; i++ {
		r.MustAppend(Tuple{Int(int64(i)), Str("n" + string(rune('a'+i%26))), Float(float64(i) / 2)})
	}
	return r
}

func TestRelationAppendArity(t *testing.T) {
	r := makeRel(t, 3)
	if err := r.Append(Tuple{Int(1)}); err == nil {
		t.Error("short tuple accepted")
	}
	if r.Cardinality() != 3 {
		t.Errorf("cardinality = %d", r.Cardinality())
	}
}

func TestRelationSample(t *testing.T) {
	r := makeRel(t, 100)
	rng := rand.New(rand.NewSource(1))
	s := r.Sample(10, rng)
	if len(s) != 10 {
		t.Fatalf("sample size %d", len(s))
	}
	s2 := r.Sample(500, rng)
	if len(s2) != 100 {
		t.Fatalf("oversized sample returned %d", len(s2))
	}
	if got := r.Sample(0, rng); got != nil {
		t.Errorf("Sample(0) = %v", got)
	}
}

func TestRelationBlocks(t *testing.T) {
	r := makeRel(t, 10)
	b := r.Blocks(3)
	if len(b) != 4 {
		t.Fatalf("blocks = %d, want 4", len(b))
	}
	total := 0
	for _, blk := range b {
		total += len(blk)
	}
	if total != 10 {
		t.Fatalf("block tuples total %d", total)
	}
	if got := r.Blocks(0); len(got) != 1 || len(got[0]) != 10 {
		t.Errorf("Blocks(0) shape wrong")
	}
	empty := New("e", testSchema(t))
	if got := empty.Blocks(3); got != nil {
		t.Errorf("empty relation blocks = %v", got)
	}
}

func TestModeledSize(t *testing.T) {
	r := makeRel(t, 10)
	raw := r.EncodedSize()
	if raw <= 0 {
		t.Fatal("zero encoded size")
	}
	r.VolumeMultiplier = 8
	if got := r.ModeledSize(); got != raw*8 {
		t.Errorf("modeled size = %d, want %d", got, raw*8)
	}
	r.VolumeMultiplier = 0
	if got := r.ModeledSize(); got != raw {
		t.Errorf("modeled size with zero multiplier = %d, want %d", got, raw)
	}
}

func TestResultSetEqualDiff(t *testing.T) {
	a, b := NewResultSet(), NewResultSet()
	t1 := Tuple{Int(1), Str("x")}
	t2 := Tuple{Int(2), Str("y")}
	a.Add(t1)
	a.Add(t1)
	a.Add(t2)
	b.Add(t1)
	b.Add(t2)
	if a.Equal(b) {
		t.Error("multisets with different multiplicity compared equal")
	}
	b.Add(t1)
	if !a.Equal(b) {
		t.Errorf("equal multisets compared unequal: %v", a.Diff(b, 5))
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	c := NewResultSet()
	c.Add(Tuple{Int(9)})
	if len(a.Diff(c, 10)) == 0 {
		t.Error("Diff of different sets empty")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := makeRel(t, 25)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "test")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(r.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", got.Schema, r.Schema)
	}
	if got.Cardinality() != r.Cardinality() {
		t.Fatalf("cardinality mismatch")
	}
	for i := range r.Tuples {
		for j := range r.Tuples[i] {
			if Compare(r.Tuples[i][j], got.Tuples[i][j]) != 0 {
				t.Fatalf("tuple %d col %d mismatch: %v vs %v", i, j, r.Tuples[i][j], got.Tuples[i][j])
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("bad header\n1\n"), "x"); err == nil {
		t.Error("malformed header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a:int\nnot-an-int\n"), "x"); err == nil {
		t.Error("malformed int accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a:bogus\n"), "x"); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestCatalog(t *testing.T) {
	r1 := makeRel(t, 30)
	r1.Name = "alpha"
	r2 := makeRel(t, 60)
	r2.Name = "beta"
	cat := NewCatalog([]*Relation{r1, r2}, 100, rand.New(rand.NewSource(2)))
	if cat.Cardinality("alpha") != 30 || cat.Cardinality("beta") != 60 {
		t.Errorf("catalog cardinalities wrong")
	}
	if cat.Cardinality("gamma") != 0 {
		t.Error("unknown relation cardinality != 0")
	}
	if _, err := cat.Stats("alpha"); err != nil {
		t.Error(err)
	}
	if _, err := cat.Stats("gamma"); err == nil {
		t.Error("Stats(gamma) succeeded")
	}
}

// TestAnalyzeSeededDefault pins the determinism contract Analyze
// documents: with a nil rng (the rand.NewSource(1) default) — or any
// identically seeded rng — repeated analyses of the same relation
// retain the same sample rows and produce identical statistics. The
// heavy-hitter detection feeding off these samples inherits the
// guarantee.
func TestAnalyzeSeededDefault(t *testing.T) {
	r := New("S", MustSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindFloat},
	))
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		r.MustAppend(Tuple{Int(int64(rng.Intn(50))), Float(rng.Float64() * 100)})
	}
	a := Analyze(r, 300, nil)
	b := Analyze(r, 300, nil)
	c := Analyze(r, 300, rand.New(rand.NewSource(1)))
	if !reflect.DeepEqual(a.SampleRows, b.SampleRows) {
		t.Error("nil-rng analyses drew different samples")
	}
	if !reflect.DeepEqual(a.SampleRows, c.SampleRows) {
		t.Error("nil rng is not equivalent to rand.NewSource(1)")
	}
	d := Analyze(r, 300, rand.New(rand.NewSource(2)))
	if reflect.DeepEqual(a.SampleRows, d.SampleRows) {
		t.Error("differently seeded analyses drew identical samples (suspicious)")
	}
}
