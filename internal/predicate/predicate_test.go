package predicate

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func TestOpStringParse(t *testing.T) {
	ops := []Op{LT, LE, EQ, GE, GT, NE}
	for _, op := range ops {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("~"); err == nil {
		t.Error("ParseOp(~) succeeded")
	}
	if got, _ := ParseOp("!="); got != NE {
		t.Error("!= not parsed as NE")
	}
	if got, _ := ParseOp("=="); got != EQ {
		t.Error("== not parsed as EQ")
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		cmp  int
		want bool
	}{
		{LT, -1, true}, {LT, 0, false}, {LT, 1, false},
		{LE, -1, true}, {LE, 0, true}, {LE, 1, false},
		{EQ, -1, false}, {EQ, 0, true}, {EQ, 1, false},
		{GE, -1, false}, {GE, 0, true}, {GE, 1, true},
		{GT, -1, false}, {GT, 0, false}, {GT, 1, true},
		{NE, -1, true}, {NE, 0, false}, {NE, 1, true},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.cmp); got != c.want {
			t.Errorf("%v.Eval(%d) = %v, want %v", c.op, c.cmp, got, c.want)
		}
	}
}

func TestOpFlipInvolution(t *testing.T) {
	for _, op := range []Op{LT, LE, EQ, GE, GT, NE} {
		if op.Flip().Flip() != op {
			t.Errorf("Flip not involutive for %v", op)
		}
	}
	if LT.Flip() != GT || LE.Flip() != GE || EQ.Flip() != EQ || NE.Flip() != NE {
		t.Error("Flip mapping wrong")
	}
}

// Property: "a op b" must equal "b op.Flip() a" for all int pairs.
func TestFlipSemanticsQuick(t *testing.T) {
	f := func(a, b int64, opIdx uint8) bool {
		op := Op(opIdx % 6)
		lhs := op.Eval(relation.Compare(relation.Int(a), relation.Int(b)))
		rhs := op.Flip().Eval(relation.Compare(relation.Int(b), relation.Int(a)))
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func twoRelations(t *testing.T) (*relation.Relation, *relation.Relation) {
	t.Helper()
	sa := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.KindInt},
		relation.Column{Name: "tag", Kind: relation.KindString},
	)
	sb := relation.MustSchema(
		relation.Column{Name: "y", Kind: relation.KindInt},
	)
	a := relation.New("A", sa)
	b := relation.New("B", sb)
	for i := 0; i < 20; i++ {
		a.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str("t")})
		b.MustAppend(relation.Tuple{relation.Int(int64(i * 2))})
	}
	return a, b
}

func TestConditionBoundEval(t *testing.T) {
	a, b := twoRelations(t)
	c := C("A", "x", LT, "B", "y")
	eval, err := c.Bound(a.Schema, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !eval(relation.Tuple{relation.Int(1), relation.Str("")}, relation.Tuple{relation.Int(5)}) {
		t.Error("1 < 5 evaluated false")
	}
	if eval(relation.Tuple{relation.Int(5), relation.Str("")}, relation.Tuple{relation.Int(5)}) {
		t.Error("5 < 5 evaluated true")
	}
}

func TestConditionOffsets(t *testing.T) {
	a, b := twoRelations(t)
	// A.x + 3 > B.y
	c := C("A", "x", GT, "B", "y").WithOffsets(3, 0)
	eval, err := c.Bound(a.Schema, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !eval(relation.Tuple{relation.Int(3), relation.Str("")}, relation.Tuple{relation.Int(5)}) {
		t.Error("3+3 > 5 evaluated false")
	}
	if eval(relation.Tuple{relation.Int(2), relation.Str("")}, relation.Tuple{relation.Int(5)}) {
		t.Error("2+3 > 5 evaluated true")
	}
}

func TestConditionBoundErrors(t *testing.T) {
	a, b := twoRelations(t)
	if _, err := C("A", "nope", LT, "B", "y").Bound(a.Schema, b.Schema); err == nil {
		t.Error("missing left column accepted")
	}
	if _, err := C("A", "x", LT, "B", "nope").Bound(a.Schema, b.Schema); err == nil {
		t.Error("missing right column accepted")
	}
}

func TestConditionReversedEquivalent(t *testing.T) {
	a, b := twoRelations(t)
	rng := rand.New(rand.NewSource(9))
	for _, op := range []Op{LT, LE, EQ, GE, GT, NE} {
		c := C("A", "x", op, "B", "y").WithOffsets(1, -2)
		r := c.Reversed()
		fwd, err := c.Bound(a.Schema, b.Schema)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := r.Bound(b.Schema, a.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			at := relation.Tuple{relation.Int(int64(rng.Intn(40) - 20)), relation.Str("")}
			bt := relation.Tuple{relation.Int(int64(rng.Intn(40) - 20))}
			if fwd(at, bt) != rev(bt, at) {
				t.Fatalf("reversed condition differs for op %v: %v vs %v", op, at, bt)
			}
		}
	}
}

func TestConditionHelpers(t *testing.T) {
	c := C("A", "x", LT, "B", "y")
	if o, ok := c.Other("A"); !ok || o != "B" {
		t.Error("Other(A) wrong")
	}
	if o, ok := c.Other("B"); !ok || o != "A" {
		t.Error("Other(B) wrong")
	}
	if _, ok := c.Other("Z"); ok {
		t.Error("Other(Z) accepted")
	}
	if s := c.String(); s != "A.x < B.y" {
		t.Errorf("String() = %q", s)
	}
	if s := c.WithOffsets(3, -1).String(); s != "A.x+3 < B.y-1" {
		t.Errorf("offset String() = %q", s)
	}
}

func TestConjunctionHelpers(t *testing.T) {
	cj := Conjunction{
		C("A", "x", LT, "B", "y"),
		C("B", "y", GE, "C", "z"),
	}
	cj[0].ID = 1
	cj[1].ID = 2
	rels := cj.Relations()
	if len(rels) != 3 || rels[0] != "A" || rels[1] != "B" || rels[2] != "C" {
		t.Errorf("Relations() = %v", rels)
	}
	ids := cj.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("IDs() = %v", ids)
	}
	if cj.String() != "A.x < B.y AND B.y >= C.z" {
		t.Errorf("String() = %q", cj.String())
	}
}

func TestExactSelectivity(t *testing.T) {
	a, b := twoRelations(t)
	// A.x = B.y: matches where x even and x/2 < 20 → x ∈ {0,2,...,19 even}=10 matches
	sel, err := ExactSelectivity(C("A", "x", EQ, "B", "y"), a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 / 400.0
	if sel != want {
		t.Errorf("exact EQ selectivity = %v, want %v", sel, want)
	}
	empty := relation.New("E", a.Schema)
	sel, err = ExactSelectivity(C("A", "x", EQ, "B", "y"), empty, b)
	if err != nil || sel != 0 {
		t.Errorf("empty selectivity = %v, %v", sel, err)
	}
}

func TestEstimateSelectivityUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sa := relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})
	a := relation.New("A", sa)
	b := relation.New("B", sa)
	for i := 0; i < 3000; i++ {
		a.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(1000)))})
		b.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(1000)))})
	}
	cat := relation.NewCatalog([]*relation.Relation{a, b}, 400, rng)

	// LT on two uniform distributions ~ 0.5.
	sel, err := EstimateSelectivity(C("A", "v", LT, "B", "v"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("LT selectivity = %v, want ~0.5", sel)
	}
	// EQ ~ 1/1000.
	sel, err = EstimateSelectivity(C("A", "v", EQ, "B", "v"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if sel > 0.02 {
		t.Errorf("EQ selectivity = %v, want ~0.001", sel)
	}
	// NE ~ 1 - EQ.
	sel, err = EstimateSelectivity(C("A", "v", NE, "B", "v"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.95 {
		t.Errorf("NE selectivity = %v, want ~0.999", sel)
	}
}

func TestEstimateMatchesExactOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sa := relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})
	a := relation.New("A", sa)
	b := relation.New("B", sa)
	for i := 0; i < 800; i++ {
		// Skewed: squares concentrate mass at low values.
		x := rng.Intn(100)
		a.MustAppend(relation.Tuple{relation.Int(int64(x * x / 100))})
		b.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(100)))})
	}
	cat := relation.NewCatalog([]*relation.Relation{a, b}, 800, rng)
	for _, op := range []Op{LT, LE, GT, GE} {
		c := C("A", "v", op, "B", "v")
		est, err := EstimateSelectivity(c, cat)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactSelectivity(c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if diff := est - exact; diff > 0.08 || diff < -0.08 {
			t.Errorf("op %v: estimate %v vs exact %v", op, est, exact)
		}
	}
}

func TestEstimateConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sa := relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})
	rels := make([]*relation.Relation, 3)
	names := []string{"A", "B", "C"}
	for i := range rels {
		rels[i] = relation.New(names[i], sa)
		for j := 0; j < 500; j++ {
			rels[i].MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(100)))})
		}
	}
	cat := relation.NewCatalog(rels, 300, rng)
	cj := Conjunction{C("A", "v", LT, "B", "v"), C("B", "v", LT, "C", "v")}
	sel, err := EstimateConjunction(cj, cat)
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.15 || sel > 0.35 {
		t.Errorf("conjunction selectivity = %v, want ~0.25", sel)
	}
	bad := Conjunction{C("A", "v", LT, "Z", "v")}
	if _, err := EstimateConjunction(bad, cat); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestEstimateSelectivityErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sa := relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})
	a := relation.New("A", sa)
	a.MustAppend(relation.Tuple{relation.Int(1)})
	cat := relation.NewCatalog([]*relation.Relation{a}, 10, rng)
	if _, err := EstimateSelectivity(C("A", "v", LT, "B", "v"), cat); err == nil {
		t.Error("missing right relation accepted")
	}
	if _, err := EstimateSelectivity(C("Z", "v", LT, "A", "v"), cat); err == nil {
		t.Error("missing left relation accepted")
	}
	// The inputs the sample cannot answer from: an unknown column is an
	// error on either side; an empty relation has no pair that could
	// match.
	empty := relation.New("E", sa)
	cat = relation.NewCatalog([]*relation.Relation{a, empty}, 10, rng)
	for _, c := range []Condition{C("A", "nope", EQ, "A", "v"), C("A", "v", LT, "E", "nope")} {
		if _, err := EstimateSelectivity(c, cat); err == nil || !strings.Contains(err.Error(), "no stats for") {
			t.Errorf("%s: err = %v, want a \"no stats for\" error", c, err)
		}
	}
	for _, c := range []Condition{C("E", "v", EQ, "A", "v"), C("A", "v", GE, "E", "v")} {
		if sel, err := EstimateSelectivity(c, cat); err != nil || sel != 0 {
			t.Errorf("%s over an empty relation = %v, %v; want 0", c, sel, err)
		}
	}
}

func TestCondKeyMode(t *testing.T) {
	cases := []struct {
		l    relation.Kind
		lOff float64
		r    relation.Kind
		rOff float64
		want KeyMode
	}{
		{relation.KindInt, 0, relation.KindInt, 0, KeyInt},
		{relation.KindInt, 3, relation.KindInt, -7, KeyInt},
		{relation.KindTime, 0.5, relation.KindTime, 0, KeyInt}, // Add truncates time offsets
		{relation.KindInt, 0, relation.KindTime, 2, KeyInt},
		{relation.KindInt, 0.5, relation.KindInt, 0, KeyFloat}, // fractional offset promotes
		{relation.KindFloat, 0, relation.KindInt, 0, KeyFloat},
		{relation.KindFloat, 1.25, relation.KindFloat, 0, KeyFloat},
		{relation.KindString, 0, relation.KindInt, 0, KeyGeneric},
		{relation.KindInt, 0, relation.KindString, 0, KeyGeneric},
		{relation.KindNull, 0, relation.KindInt, 0, KeyGeneric},
	}
	for _, tc := range cases {
		if got := CondKeyMode(tc.l, tc.lOff, tc.r, tc.rOff); got != tc.want {
			t.Errorf("CondKeyMode(%v%+g, %v%+g) = %d, want %d", tc.l, tc.lOff, tc.r, tc.rOff, got, tc.want)
		}
	}
}

// Key-mode comparison must agree with Compare on shifted values for
// each fast mode, across the kinds that mode admits.
func TestCondKeyModeAgreesWithCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(k relation.Kind) relation.Value {
		switch k {
		case relation.KindInt:
			return relation.Int(int64(rng.Intn(100) - 50))
		case relation.KindFloat:
			return relation.Float(float64(rng.Intn(100)-50) / 4)
		case relation.KindTime:
			return relation.TimeUnix(int64(rng.Intn(100)))
		default:
			return relation.Null()
		}
	}
	kinds := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindTime}
	offs := []float64{0, 2, -3, 0.5}
	for trial := 0; trial < 2000; trial++ {
		lk, rk := kinds[rng.Intn(len(kinds))], kinds[rng.Intn(len(kinds))]
		lOff, rOff := offs[rng.Intn(len(offs))], offs[rng.Intn(len(offs))]
		lv, rv := mk(lk), mk(rk)
		if rng.Intn(10) == 0 {
			lv = relation.Null()
		}
		mode := CondKeyMode(lk, lOff, rk, rOff)
		var lkey, rkey int64
		switch mode {
		case KeyInt:
			lkey, rkey = relation.SortKeyInt(lv, lOff), relation.SortKeyInt(rv, rOff)
		case KeyFloat:
			lkey, rkey = relation.SortKeyFloat(lv, lOff), relation.SortKeyFloat(rv, rOff)
		default:
			t.Fatalf("numeric kinds classified generic: %v %v", lk, rk)
		}
		got := 0
		if lkey < rkey {
			got = -1
		} else if lkey > rkey {
			got = 1
		}
		if want := relation.Compare(lv.Add(lOff), rv.Add(rOff)); got != want {
			t.Fatalf("mode %d: %v%+g vs %v%+g: key cmp %d, Compare %d", mode, lv, lOff, rv, rOff, got, want)
		}
	}
}

func TestCondKeyModeDict(t *testing.T) {
	s, i, f := relation.KindString, relation.KindInt, relation.KindFloat
	cases := []struct {
		l, r    relation.Kind
		hasDict bool
		want    KeyMode
	}{
		{s, s, true, KeyDict},
		{s, s, false, KeyGeneric}, // no dictionary: generic fallback
		{s, i, true, KeyGeneric},  // mixed kinds never take dict keys
		{i, s, true, KeyGeneric},
		{i, i, true, KeyInt}, // numeric pairs ignore hasDict
		{f, i, true, KeyFloat},
	}
	for _, tc := range cases {
		if got := CondKeyModeDict(tc.l, 0, tc.r, 0, tc.hasDict); got != tc.want {
			t.Errorf("CondKeyModeDict(%v, %v, dict=%v) = %d, want %d", tc.l, tc.r, tc.hasDict, got, tc.want)
		}
	}
}

// BenchmarkSampleSelectivity is the planner's pricing kernel on its own:
// one offset range condition over two 1 000-row samples, a million
// Add+Compare pairs per op. relation.Value is laid out to stay in
// registers through that loop (see its type comment); a layout that
// loses that reads about 3× slower on the pairs/s line.
func BenchmarkSampleSelectivity(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	s := relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt})
	l, r := relation.New("L", s), relation.New("R", s)
	for i := 0; i < 1000; i++ {
		l.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(rng.Intn(10000)))})
		r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(rng.Intn(10000)))})
	}
	cat := relation.NewCatalog([]*relation.Relation{l, r}, 1000, rng)
	ls, _ := cat.Stats("L")
	rs, _ := cat.Stats("R")
	c := C("L", "v", LT, "R", "v").WithOffsets(250, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sel, ok := sampleSelectivity(c, ls, rs); !ok || sel <= 0 || sel >= 1 {
			b.Fatalf("selectivity %v, %v", sel, ok)
		}
	}
	pairs := float64(len(ls.SampleRows)) * float64(len(rs.SampleRows))
	b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}
