package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// joinNumbers are the values equality pairs are drawn around: small
// ones, values from 10^6 up, where an int and a float of one value
// print differently ("1000000", "1e+06"), and 2^53 / 2^53+1, which are
// equal as the floats an int ⋈ float condition compares.
var joinNumbers = []int64{-3, 0, 5, 999_999, 1_000_000, 1_234_567, 1_700_000_000, 1 << 53, 1<<53 + 1}

var joinStrings = []string{"", "a", "ab", "b", "delta", "longer than a word"}

// numberAs renders x as a value of a numeric kind; a float zero is -0
// or +0 at random.
func numberAs(kind relation.Kind, x int64, rng *rand.Rand) relation.Value {
	switch kind {
	case relation.KindFloat:
		if x == 0 && rng.Intn(2) == 0 {
			return relation.Float(math.Copysign(0, -1))
		}
		return relation.Float(float64(x))
	case relation.KindTime:
		return relation.TimeUnix(x)
	}
	return relation.Int(x)
}

// keySide is one side of an equality: its kind and, for a numeric
// condition without a float, a whole offset.
type keySide struct {
	kind relation.Kind
	off  float64
}

// drawEqualColumns draws n value pairs (one per row) that satisfy
// l + lOff = r + rOff as relation.Compare — the oracle — sees it,
// about one in eight a NULL pair.
func drawEqualColumns(t *testing.T, l, r keySide, n int, rng *rand.Rand) (ls, rs []relation.Value) {
	t.Helper()
	for range n {
		var lv, rv relation.Value
		switch {
		case rng.Intn(8) == 0:
			lv, rv = relation.Null(), relation.Null()
		case l.kind == relation.KindString:
			s := joinStrings[rng.Intn(len(joinStrings))]
			lv, rv = relation.Str(s), relation.Str(s)
		default:
			x := joinNumbers[rng.Intn(len(joinNumbers))]
			lv, rv = numberAs(l.kind, x-int64(l.off), rng), numberAs(r.kind, x-int64(r.off), rng)
		}
		if relation.Compare(lv.Add(l.off), rv.Add(r.off)) != 0 {
			t.Fatalf("drew %v%+g = %v%+g, which does not hold", lv, l.off, rv, r.off)
		}
		ls, rs = append(ls, lv), append(rs, rv)
	}
	return ls, rs
}

// randKeySides draws the two sides of one equality: a string with a
// string, or any two of int, float and time, with whole offsets when
// neither is a float.
func randKeySides(rng *rand.Rand) (keySide, keySide) {
	if rng.Intn(4) == 0 {
		return keySide{kind: relation.KindString}, keySide{kind: relation.KindString}
	}
	numeric := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindTime}
	l, r := keySide{kind: numeric[rng.Intn(3)]}, keySide{kind: numeric[rng.Intn(3)]}
	if l.kind != relation.KindFloat && r.kind != relation.KindFloat && rng.Intn(2) == 0 {
		l.off, r.off = float64(rng.Intn(5)-2), float64(rng.Intn(3)-1)
	}
	return l, r
}

// columnsRelation builds a relation whose column k<i> holds cols[i].
func columnsRelation(name string, kinds []relation.Kind, cols [][]relation.Value) *relation.Relation {
	schema := make([]relation.Column, len(kinds))
	for i, k := range kinds {
		schema[i] = relation.Column{Name: fmt.Sprint("k", i), Kind: k}
	}
	r := relation.New(name, relation.MustSchema(schema...))
	for row := range cols[0] {
		t := make(relation.Tuple, len(cols))
		for i := range cols {
			t[i] = cols[i][row]
		}
		r.MustAppend(t)
	}
	return r
}

// shareDicts interns r's strings against l's dictionaries, as aliases
// of one base relation share them: every string of r must be in l.
func shareDicts(t *testing.T, l, r *relation.Relation) {
	t.Helper()
	r.Dicts = l.Dicts
	for _, row := range r.Tuples {
		for c, v := range row {
			if d := l.DictOf(c); d != nil && !v.IsNull() {
				code, ok := d.Code(v.Str())
				if !ok {
					t.Fatalf("%q is not in %s's dictionary", v.Str(), l.Name)
				}
				row[c] = relation.InternedStr(v.Str(), code)
			}
		}
	}
}

var keySink uint64

func sinkKey(k uint64) { keySink = k }

// TestHashEquiMapKeys: rows that satisfy a job's equalities as the
// oracle's relation.Compare sees them shuffle on one key — the two
// sides of a hash-equi job and of a cascade step
// (PairMatcher.ShuffleKey) — and every member of a share-grid class
// pins one slot. Pairs are drawn over int, float and time columns,
// with whole offsets where no float is involved, strings under two
// distinct dictionaries and under one shared dictionary, and NULLs.
// The key paths allocate nothing.
func TestHashEquiMapKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 64
	for trial := 0; trial < 60; trial++ {
		// Two equalities: a composite key.
		var lKinds, rKinds []relation.Kind
		var lCols, rCols [][]relation.Value
		var conds predicate.Conjunction
		for c := range 2 {
			l, r := randKeySides(rng)
			lv, rv := drawEqualColumns(t, l, r, n, rng)
			lKinds, rKinds = append(lKinds, l.kind), append(rKinds, r.kind)
			lCols, rCols = append(lCols, lv), append(rCols, rv)
			col := fmt.Sprint("k", c)
			cond := predicate.C("L", col, predicate.EQ, "R", col).WithOffsets(l.off, r.off)
			if rng.Intn(2) == 0 {
				cond = cond.Reversed() // the job orients it
			}
			conds = append(conds, cond)
		}
		// A string only L holds shifts L's dictionary codes, so two
		// dictionaries code every joined string differently.
		for c := range lCols {
			v := relation.Null()
			if lKinds[c] == relation.KindString {
				v = relation.Str("0")
			}
			lCols[c] = append(lCols[c], v)
		}
		left, right := columnsRelation("L", lKinds, lCols), columnsRelation("R", rKinds, rCols)
		if err := relation.InternStrings(left); err != nil {
			t.Fatal(err)
		}
		shared := trial%2 == 0
		if shared {
			shareDicts(t, left, right)
		} else if err := relation.InternStrings(right); err != nil {
			t.Fatal(err)
		}
		job, err := BuildHashEquiJob("j", left, right, conds, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := NewPairMatcher(left, right, conds)
		if err != nil {
			t.Fatal(err)
		}
		for row := range n {
			l, r := left.Tuples[row], right.Tuples[row]
			var lk, rk uint64
			job.Inputs[0].Map(l, func(k uint64) { lk = k })
			job.Inputs[1].Map(r, func(k uint64) { rk = k })
			if lk != rk {
				t.Fatalf("trial %d (%s, shared dictionaries %v): hash-equi keys %#x ≠ %#x for %v ⋈ %v", trial, conds, shared, lk, rk, l, r)
			}
			if lk, rk := pm.ShuffleKey(0, l), pm.ShuffleKey(1, r); lk != rk {
				t.Fatalf("trial %d (%s, shared dictionaries %v): cascade keys %#x ≠ %#x for %v ⋈ %v", trial, conds, shared, lk, rk, l, r)
			}
		}
		if a := testing.AllocsPerRun(10, func() {
			for row := range n {
				job.Inputs[0].Map(left.Tuples[row], sinkKey)
				job.Inputs[1].Map(right.Tuples[row], sinkKey)
				keySink ^= pm.ShuffleKey(0, left.Tuples[row]) ^ pm.ShuffleKey(1, right.Tuples[row])
			}
		}); a != 0 {
			t.Errorf("trial %d: hash-equi and cascade keys allocate %v times per %d row pairs", trial, a, n)
		}
	}
}

// TestShareGridSlotsFollowJoinKeys: in a one-class grid every relation
// knows the dimension, so each tuple pins one cell, and the members of
// a combination that satisfies the class's equalities pin the same
// one, whatever kinds the members mix (the class keys as float when one
// member is a float) and with strings under distinct dictionaries.
func TestShareGridSlotsFollowJoinKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 64
	names := []string{"X", "Y", "Z"}
	for trial := 0; trial < 40; trial++ {
		kinds := make([]relation.Kind, 3)
		cols := make([][]relation.Value, 3)
		if rng.Intn(4) == 0 {
			for i := range kinds {
				kinds[i] = relation.KindString
			}
		} else {
			for i := range kinds {
				kinds[i] = []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindTime}[rng.Intn(3)]
			}
		}
		for range n {
			var vals [3]relation.Value
			switch {
			case rng.Intn(8) == 0:
				vals = [3]relation.Value{relation.Null(), relation.Null(), relation.Null()}
			case kinds[0] == relation.KindString:
				s := relation.Str(joinStrings[rng.Intn(len(joinStrings))])
				vals = [3]relation.Value{s, s, s}
			default:
				x := joinNumbers[rng.Intn(len(joinNumbers))]
				for i := range vals {
					vals[i] = numberAs(kinds[i], x, rng)
				}
			}
			for i := range cols {
				cols[i] = append(cols[i], vals[i])
			}
		}
		// Strings only Y or Z holds shift their dictionary codes, so
		// the three dictionaries code every joined string differently.
		if kinds[0] == relation.KindString {
			cols[1] = append(cols[1], relation.Str("0"))
			cols[2] = append(cols[2], relation.Str("0"), relation.Str("00"))
		}
		rels := make([]*relation.Relation, 3)
		for i := range rels {
			rels[i] = columnsRelation(names[i], kinds[i:i+1], cols[i:i+1])
			if err := relation.InternStrings(rels[i]); err != nil {
				t.Fatal(err)
			}
		}
		conds := predicate.Conjunction{
			predicate.C("X", "k0", predicate.EQ, "Y", "k0"),
			predicate.C("Y", "k0", predicate.EQ, "Z", "k0"),
		}
		job, err := BuildShareGridJob("g", rels, conds, 12, nil)
		if err != nil {
			t.Fatal(err)
		}
		for row := range n {
			var cells [3]uint64
			for i, r := range rels {
				if i > 0 {
					if x, y := rels[i-1].Tuples[row][0], r.Tuples[row][0]; relation.Compare(x, y) != 0 {
						t.Fatalf("drew %v = %v, which does not hold", x, y)
					}
				}
				emitted := 0
				job.Inputs[i].Map(r.Tuples[row], func(k uint64) { cells[i] = k; emitted++ })
				if emitted != 1 {
					t.Fatalf("%s's tuple pinned %d cells", r.Name, emitted)
				}
			}
			if cells[0] != cells[1] || cells[1] != cells[2] {
				t.Fatalf("trial %d (kinds %v): cells %v for %v, %v, %v", trial, kinds, cells,
					rels[0].Tuples[row], rels[1].Tuples[row], rels[2].Tuples[row])
			}
		}
		if a := testing.AllocsPerRun(10, func() {
			for i, r := range rels {
				for _, x := range r.Tuples {
					job.Inputs[i].Map(x, sinkKey)
				}
			}
		}); a != 0 {
			t.Errorf("trial %d: grid keys allocate %v times per %d rows", trial, a, 3*n)
		}
	}
}
