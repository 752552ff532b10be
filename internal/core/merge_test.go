package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// referenceMergeRows is the rid hash join as MergeOutputs ran it before
// it was keyed on int64s: a map from the concatenated Value.String()s of
// the key columns to right row indexes, one allocated row per hit. It
// is the oracle for the rows and their order.
func referenceMergeRows(left, right *relation.Relation, lKey, rKey, rKeep []int) []relation.Tuple {
	keyOf := func(t relation.Tuple, cols []int) string {
		var kb strings.Builder
		for _, c := range cols {
			kb.WriteString(t[c].String())
			kb.WriteByte(0x1f)
		}
		return kb.String()
	}
	index := make(map[string][]int, len(right.Tuples))
	for i, t := range right.Tuples {
		index[keyOf(t, rKey)] = append(index[keyOf(t, rKey)], i)
	}
	var rows []relation.Tuple
	for _, lt := range left.Tuples {
		for _, ri := range index[keyOf(lt, lKey)] {
			row := append(relation.Tuple{}, lt...)
			for _, c := range rKeep {
				row = append(row, right.Tuples[ri][c])
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// jobOutput builds a relation shaped like a join output over the named
// base relations: per relation a rid column and one payload column.
func jobOutput(name string, rels ...string) *relation.Relation {
	var cols []relation.Column
	for _, r := range rels {
		cols = append(cols, relation.Column{Name: r + "." + RowIDColumn, Kind: relation.KindInt},
			relation.Column{Name: r + ".v", Kind: relation.KindString})
	}
	return relation.New(name, relation.MustSchema(cols...))
}

// fillOutput appends n rows whose rids are drawn from [0, ridRange) —
// so rids repeat, within and across outputs — or from the full int64
// range when ridRange is 0.
func fillOutput(r *relation.Relation, n int, ridRange int64, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		row := make(relation.Tuple, 0, r.Schema.Len())
		for c := 0; c < r.Schema.Len(); c += 2 {
			rid := int64(rng.Uint64())
			if ridRange > 0 {
				rid = rng.Int63n(ridRange)
			}
			row = append(row, relation.Int(rid), relation.Str(r.Name+r.Schema.Column(c).Name))
		}
		r.Tuples = append(r.Tuples, row)
	}
}

// TestMergeOutputsMatchesStringKeyedOracle: same rows in the same order
// as the string-keyed join, for a single shared relation, for composite
// keys (two and three shared relations), with duplicate rids on both
// sides, with no match at all, and with rids that differ only in the
// high bits or only across key positions.
func TestMergeOutputsMatchesStringKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name        string
		left, right []string
		n           int
		ridRange    int64
	}{
		{"one shared relation", []string{"A", "B"}, []string{"B", "C"}, 400, 60},
		{"two shared relations", []string{"A", "B", "C"}, []string{"B", "C", "D"}, 600, 12},
		{"three shared relations", []string{"A", "B", "C", "D"}, []string{"D", "C", "B"}, 800, 5},
		{"every row the same key", []string{"A", "B"}, []string{"B", "C"}, 40, 1},
		{"sparse 64-bit rids, no match", []string{"A", "B"}, []string{"B", "C"}, 300, 0},
		{"empty right side", []string{"A", "B"}, []string{"B", "C"}, 0, 10},
	}
	for _, c := range cases {
		left, right := jobOutput("l", c.left...), jobOutput("r", c.right...)
		fillOutput(left, max(c.n, 20), c.ridRange, rng)
		fillOutput(right, c.n, c.ridRange, rng)
		if c.name == "two shared relations" {
			// Keys that agree as multisets but not position by position,
			// and keys equal in the low 32 bits only.
			left.Tuples = append(left.Tuples, relation.Tuple{relation.Int(1), relation.Str("x"), relation.Int(3), relation.Str("x"), relation.Int(4), relation.Str("x")},
				relation.Tuple{relation.Int(1), relation.Str("y"), relation.Int(1 << 40), relation.Str("y"), relation.Int(2), relation.Str("y")})
			right.Tuples = append(right.Tuples, relation.Tuple{relation.Int(4), relation.Str("x"), relation.Int(3), relation.Str("x"), relation.Int(9), relation.Str("x")},
				relation.Tuple{relation.Int(1<<40 + 1<<32), relation.Str("y"), relation.Int(2), relation.Str("y"), relation.Int(9), relation.Str("y")},
				relation.Tuple{relation.Int(1 << 40), relation.Str("z"), relation.Int(2), relation.Str("z"), relation.Int(9), relation.Str("z")})
		}
		got, err := MergeOutputs("m", left, right)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var lKey, rKey, rKeep []int
		for _, rel := range sharedRelations(left, right) {
			lKey = append(lKey, left.Schema.MustLookup(rel+"."+RowIDColumn))
			rKey = append(rKey, right.Schema.MustLookup(rel+"."+RowIDColumn))
		}
		for i := 0; i < right.Schema.Len(); i++ {
			if _, shared := left.Schema.Lookup(right.Schema.Column(i).Name); !shared {
				rKeep = append(rKeep, i)
			}
		}
		want := referenceMergeRows(left, right, lKey, rKey, rKeep)
		if len(got.Tuples) != len(want) || !sameRows(got.Tuples, want) {
			t.Errorf("%s: %d merged rows, the string-keyed oracle has %d (or their order or values differ)", c.name, len(got.Tuples), len(want))
		}
		if c.ridRange > 0 && c.n > 0 && len(want) == 0 {
			t.Errorf("%s: case exercises nothing, the oracle found no match", c.name)
		}
		for i, row := range got.Tuples {
			if len(row) != got.Schema.Len() || cap(row) != len(row) {
				t.Fatalf("%s: row %d has len %d cap %d, schema arity %d", c.name, i, len(row), cap(row), got.Schema.Len())
			}
		}
	}
}

// TestMergeRejectsNonIntRid: a NULL or non-int value in a rid column is
// an explicit merge error, on either side, not a ""-joins-"" match.
func TestMergeRejectsNonIntRid(t *testing.T) {
	for _, bad := range []relation.Value{relation.Null(), relation.Str("7"), relation.Float(7)} {
		for side := 0; side < 2; side++ {
			rng := rand.New(rand.NewSource(43))
			outs := []*relation.Relation{jobOutput("l", "A", "B"), jobOutput("r", "B", "C")}
			fillOutput(outs[0], 10, 4, rng)
			fillOutput(outs[1], 10, 4, rng)
			col := outs[side].Schema.MustLookup("B." + RowIDColumn)
			outs[side].Tuples[3][col] = bad
			_, err := MergeOutputs("q", outs[0], outs[1])
			if err == nil || !strings.HasPrefix(err.Error(), "core: merge q: ") || !strings.Contains(err.Error(), "B."+RowIDColumn) {
				t.Errorf("%v rid in %s: err = %v, want a core: merge q error naming B.%s", bad.Kind(), outs[side].Name, err, RowIDColumn)
			}
		}
	}
}

// mergeFullWidth merges job outputs full-width: mergeTree with every
// step MergeOutputs, each output priced at its ModeledSize. It is the
// oracle for the executor's merge, whose last step gathers the rows.
func mergeFullWidth(name string, outputs []*relation.Relation) (*relation.Relation, []MergeStep, error) {
	sizes := make([]int64, len(outputs))
	for i, r := range outputs {
		sizes[i] = r.ModeledSize()
	}
	merged, _, steps, err := mergeTree(name, outputs, sizes, nil, mergeStep)
	return merged, steps, err
}

// TestMergeTreeTakesOperandSizesAsGiven: the merge tree is priced from
// the sizes its caller hands in — a merged node re-enters at the sum of
// its constituents and takes its relation set from its columns — and
// never from a walk over a relation's values.
func TestMergeTreeTakesOperandSizesAsGiven(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	outs := []*relation.Relation{jobOutput("ab", "A", "B"), jobOutput("bc", "B", "C"), jobOutput("cd", "C", "D")}
	for _, o := range outs {
		fillOutput(o, 50, 8, rng)
	}
	// Sizes no walk would produce.
	merged, rows, steps, err := mergeTree("q", outs, []int64{1_000_003, 70_001, 13}, nil, mergeStep)
	if err != nil {
		t.Fatal(err)
	}
	want := []MergeStep{{LeftBytes: 1_000_003, RightBytes: 70_001}, {LeftBytes: 13, RightBytes: 1_070_004}}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("steps = %+v, want %+v", steps, want)
	}
	if got := relationsOfOutput(merged); !reflect.DeepEqual(got, []string{"C", "D", "A", "B"}) {
		t.Errorf("merged result covers %v", got)
	}
	if rows != merged.Cardinality() {
		t.Errorf("mergeTree counts %d rows, its result holds %d", rows, merged.Cardinality())
	}
	// Priced from ModeledSize, the same tree.
	_, steps, err = mergeFullWidth("q", outs)
	if err != nil {
		t.Fatal(err)
	}
	ab, bc, cd := outs[0].ModeledSize(), outs[1].ModeledSize(), outs[2].ModeledSize()
	if want := []MergeStep{{ab, bc}, {cd, ab + bc}}; !reflect.DeepEqual(steps, want) {
		t.Errorf("steps from ModeledSize = %+v, want %+v", steps, want)
	}
}

// TestJobMetricsGiveModeledSize: the size the executor derives from a
// job's metrics is exactly the ModeledSize a walk over its output gives,
// so the merge steps — and the modeled makespan charged off them — did
// not move when the walk was dropped.
func TestJobMetricsGiveModeledSize(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a, b := randRelation("A", 200, 20, rng), randRelation("B", 200, 20, rng)
	a.VolumeMultiplier, b.VolumeMultiplier = 1234.567, 89.01
	db := newTestDB(t, a, b)
	ra, _ := db.Relation("A")
	rb, _ := db.Relation("B")
	job, err := BuildHashEquiJob("he", ra, rb, predicate.Conjunction{predicate.C("A", "a", predicate.EQ, "B", "a")}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Cardinality() == 0 {
		t.Fatal("empty probe join")
	}
	if got, want := int64(float64(res.Metrics.OutputRawBytes)*res.Output.VolumeMultiplier), res.Output.ModeledSize(); got != want {
		t.Errorf("size from metrics = %d, ModeledSize = %d (multiplier %v)", got, want, res.Output.VolumeMultiplier)
	}
}

// resultShaped is a ~100 k-row × 21-value job output pair sharing one
// relation, the micro-benchmarks' input.
func resultShaped(b *testing.B) (left, right *relation.Relation) {
	b.Helper()
	rng := rand.New(rand.NewSource(53))
	wide := func(name string, rels ...string) *relation.Relation {
		var cols []relation.Column
		for _, r := range rels {
			cols = append(cols, relation.Column{Name: r + "." + RowIDColumn, Kind: relation.KindInt})
			for _, c := range []string{"id", "d", "bt", "l", "bsc"} {
				cols = append(cols, relation.Column{Name: r + "." + c, Kind: relation.KindInt})
			}
			cols = append(cols, relation.Column{Name: r + ".bs", Kind: relation.KindString})
		}
		return relation.New(name, relation.MustSchema(cols...))
	}
	fill := func(r *relation.Relation, n int, ridOf func(i, rel int) int64) {
		for i := 0; i < n; i++ {
			row := make(relation.Tuple, 0, r.Schema.Len())
			for rel := 0; rel < r.Schema.Len()/7; rel++ {
				row = append(row, relation.Int(ridOf(i, rel)))
				for c := 0; c < 5; c++ {
					row = append(row, relation.Int(rng.Int63n(1_000_000)))
				}
				row = append(row, relation.Str(fmt.Sprintf("BS%05d", rng.Int63n(50))))
			}
			r.Tuples = append(r.Tuples, row)
		}
	}
	// left(t1,t2) has 100 k rows over 20 k distinct t2 rids; right(t2,t3)
	// holds each t2 rid once: 100 k merged rows of 21 values.
	left, right = wide("l", "t1", "t2"), wide("r", "t2", "t3")
	fill(left, 100_000, func(i, rel int) int64 { return int64(i) % (20_000 + 80_000*int64(1-rel)) })
	fill(right, 20_000, func(i, rel int) int64 { return int64(i) })
	return left, right
}

func BenchmarkMergeOutputs(b *testing.B) {
	left, right := resultShaped(b)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		out, err := MergeOutputs("m", left, right)
		if err != nil {
			b.Fatal(err)
		}
		rows += out.Cardinality()
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkMergeGather times the rid-merge's final step on q1_merge's
// shape: 752 (t1, t2) rid rows against 39 677 (t2, t3) rid rows over
// three 400-row, 7-column relations, gathered, hashed and materialised
// as 75 069 result rows of 21 values.
func BenchmarkMergeGather(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	var rels []*relation.Relation
	for _, name := range []string{"t1", "t2", "t3"} {
		r := relation.New(name, relation.MustSchema(relation.Column{Name: "id", Kind: relation.KindInt},
			relation.Column{Name: "d", Kind: relation.KindInt}, relation.Column{Name: "bt", Kind: relation.KindInt},
			relation.Column{Name: "l", Kind: relation.KindInt}, relation.Column{Name: "bsc", Kind: relation.KindInt},
			relation.Column{Name: "bs", Kind: relation.KindString}))
		for i := 0; i < 400; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(rng.Int63n(30)), relation.Int(rng.Int63n(86_400)),
				relation.Int(rng.Int63n(3_600)), relation.Int(rng.Int63n(50)), relation.Str(fmt.Sprintf("BS%05d", rng.Int63n(50)))})
		}
		rels = append(rels, r)
	}
	db, err := NewDB(100, 1, rels...)
	if err != nil {
		b.Fatal(err)
	}
	rids := func(name string, rels ...string) *relation.Relation {
		var cols []relation.Column
		for _, r := range rels {
			cols = append(cols, relation.Column{Name: r + "." + RowIDColumn, Kind: relation.KindInt})
		}
		return relation.New(name, relation.MustSchema(cols...))
	}
	// Right: t2 rids 0…76 have 100 t3 partners, the rest 99. Left: 621
	// rows on a 100-partner t2 rid and 131 on a 99-partner one.
	left, right := rids("l", "t1", "t2"), rids("r", "t2", "t3")
	for i := int64(0); i < 39_677; i++ {
		right.Tuples = append(right.Tuples, relation.Tuple{relation.Int(i % 400), relation.Int(i * 7 % 400)})
	}
	for i := int64(0); i < 752; i++ {
		t2 := i % 77
		if i >= 621 {
			t2 = 77 + i%323
		}
		left.Tuples = append(left.Tuples, relation.Tuple{relation.Int(i % 400), relation.Int(t2)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		out, n, _, err := gatherMerge("m", left, right, db, -1)
		if err != nil {
			b.Fatal(err)
		}
		if n != 75_069 || out.Schema.Len() != 21 {
			b.Fatalf("gathered %d rows of %d values", n, out.Schema.Len())
		}
		rows += n
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}
