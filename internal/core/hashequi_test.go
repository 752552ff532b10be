package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// referenceKeyHash is the composite shuffle key as it was computed
// through hash/fnv, one []byte per part: the oracle for foldKeyPart.
func referenceKeyHash(vals []relation.Value, code []bool) uint64 {
	h := fnv.New64a()
	for i, v := range vals {
		if c, ok := v.DictCode(); code[i] && ok {
			var cb [8]byte
			binary.LittleEndian.PutUint64(cb[:], uint64(c))
			h.Write(cb[:])
		} else {
			h.Write([]byte(v.String()))
		}
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

func TestFoldKeyPartMatchesFNV(t *testing.T) {
	long := string(make([]byte, 300)) + "longer than the scratch buffer"
	vals := []relation.Value{
		relation.Null(),
		relation.Int(0), relation.Int(-1), relation.Int(math.MinInt64), relation.Int(math.MaxInt64),
		relation.Int(7).Add(3), relation.Int(7).Add(0.5), relation.TimeUnix(86400).Add(-60),
		relation.Float(0.1), relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()), relation.Float(-math.MaxFloat64),
		relation.Str(""), relation.Str("plain"), relation.Str(long), relation.Str("sep\x1finside"),
		relation.InternedStr("member", 0), relation.InternedStr("member", 1<<40), relation.InternedStr("", 3), relation.InternedStr(long, 255),
	}
	for _, code := range []bool{false, true} {
		var all uint64 = fnvOffset64
		for _, v := range vals {
			if got, want := foldKeyPart(fnvOffset64, v, code), referenceKeyHash([]relation.Value{v}, []bool{code}); got != want {
				t.Errorf("code=%v %v %q: %#x, hash/fnv gives %#x", code, v.Kind(), clipString(v.String()), got, want)
			}
			all = foldKeyPart(all, v, code)
		}
		codes := make([]bool, len(vals))
		for i := range codes {
			codes[i] = code
		}
		if want := referenceKeyHash(vals, codes); all != want {
			t.Errorf("code=%v, all %d parts in one key: %#x, hash/fnv gives %#x", code, len(vals), all, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			benchKeySink = foldKeyPart(benchKeySink, v, true)
		}
	}); n != 0 {
		t.Errorf("foldKeyPart allocates %v times over %d values", n, len(vals))
	}
}

var benchKeySink uint64

func clipString(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

// TestHashEquiMapKeys: the keys the job's map functions emit are the
// hash/fnv reference over the condition-ordered key columns with their
// offsets applied — by dictionary code where both sides share one
// dictionary, by text where they do not (distinct dictionaries, or
// none), so equal join values meet on one key either way.
func TestHashEquiMapKeys(t *testing.T) {
	names := []string{"delta", "alpha", "", "charlie", "bravo"}
	mk := func(name string, n int, seed int64) *relation.Relation {
		r := relation.New(name, relation.MustSchema(
			relation.Column{Name: "s", Kind: relation.KindString},
			relation.Column{Name: "k", Kind: relation.KindInt},
		))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			s := relation.Str(names[rng.Intn(len(names))])
			if rng.Intn(10) == 0 {
				s = relation.Null()
			}
			r.MustAppend(relation.Tuple{s, relation.Int(int64(rng.Intn(5)))})
		}
		return r
	}
	conds := predicate.Conjunction{
		predicate.C("R", "s", predicate.EQ, "L", "s"), // reversed on purpose: the job orients it
		predicate.C("L", "k", predicate.EQ, "R", "k").WithOffsets(2, 0),
	}
	for _, tc := range []struct {
		name   string
		intern func(l, r *relation.Relation)
		code   bool
	}{
		{"no dictionaries", func(l, r *relation.Relation) {}, false},
		{"distinct dictionaries", func(l, r *relation.Relation) { relation.InternStrings(l); relation.InternStrings(r) }, false},
		{"one shared dictionary", func(l, r *relation.Relation) {
			relation.InternStrings(l)
			r.Dicts = l.Dicts
			for _, row := range r.Tuples {
				if c, ok := l.Dicts[0].Code(row[0].Str()); ok && !row[0].IsNull() {
					row[0] = relation.InternedStr(row[0].Str(), c)
				}
			}
		}, true},
	} {
		l, r := mk("L", 200, 1), mk("R", 200, 2)
		tc.intern(l, r)
		job, err := BuildHashEquiJob("j", l, r, conds, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]uint64{} // join values' text → key, across both sides
		for side, rel := range []*relation.Relation{l, r} {
			off := []float64{2, 0}[side]
			for _, row := range rel.Tuples {
				vals := []relation.Value{row[0], row[1].Add(off)}
				want := referenceKeyHash(vals, []bool{tc.code, false})
				var got uint64
				job.Inputs[side].Map(row, func(key uint64) { got = key })
				if got != want {
					t.Fatalf("%s: side %d row %v: key %#x, hash/fnv gives %#x", tc.name, side, row, got, want)
				}
				text := vals[0].Kind().String() + ":" + vals[0].String() + "|" + vals[1].String()
				if prev, ok := seen[text]; ok && prev != got {
					t.Fatalf("%s: join value %q has keys %#x and %#x", tc.name, text, prev, got)
				}
				seen[text] = got
			}
		}
	}
}
