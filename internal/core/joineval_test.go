package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

// mixedRelation builds a relation exercising every key mode: int (i),
// float (f), string (s) and time (t) columns.
func mixedRelation(name string, n, domain int, rng *rand.Rand) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "t", Kind: relation.KindTime},
	))
	for k := 0; k < n; k++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(rng.Intn(domain))),
			relation.Float(float64(rng.Intn(4*domain)) / 4),
			relation.Str(string(rune('a' + rng.Intn(domain%26+1)))),
			relation.TimeUnix(int64(rng.Intn(domain))),
		})
	}
	return r
}

// runJob executes a job single-threaded with the shared test config.
func runEvalJob(t *testing.T, job *mr.Job) *mr.Result {
	t.Helper()
	res, err := mr.Run(context.Background(), testConfig(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJoinEvalThetaEquivalence checks the indexed theta reducer
// against the Naive oracle across every condition shape the evaluator
// compiles differently: equalities, single and band ranges, NE,
// fractional offsets (int→float promotion), string columns
// (dictionary keys) and time columns.
func TestJoinEvalThetaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mixedRelation("A", 70, 12, rng)
	b := mixedRelation("B", 60, 12, rng)
	c := mixedRelation("C", 50, 12, rng)
	db := newTestDB(t, a, b, c)
	cases := []struct {
		name  string
		rels  []string
		conds []predicate.Condition
	}{
		{"eq-int", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
		}},
		{"range-int", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.LT, "B", "i"),
		}},
		{"band-int", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.LT, "B", "i"),
			predicate.C("A", "i", predicate.GT, "B", "i").WithOffsets(0, -4),
		}},
		{"band-float", []string{"A", "B"}, []predicate.Condition{
			// Different candidate-side offsets in float mode: not
			// foldable into one subrange, verified per candidate.
			predicate.C("A", "f", predicate.LT, "B", "f"),
			predicate.C("A", "f", predicate.GT, "B", "f").WithOffsets(0, -2.5),
		}},
		{"band-time", []string{"A", "B"}, []predicate.Condition{
			// Integer mode with differing offsets: folds by shifting
			// the probe key (time offsets truncate, as Value.Add does).
			predicate.C("A", "t", predicate.LE, "B", "t"),
			predicate.C("A", "t", predicate.GE, "B", "t").WithOffsets(0, -3),
		}},
		{"eq-plus-range", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("A", "f", predicate.LE, "B", "f"),
		}},
		{"ne", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.GE, "B", "i"),
			predicate.C("A", "t", predicate.NE, "B", "t"),
		}},
		{"float-offset-promotion", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.LT, "B", "i").WithOffsets(0.5, 0),
		}},
		{"int-vs-float", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.GE, "B", "f"),
		}},
		{"string-generic", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.LE, "B", "s"),
			predicate.C("A", "i", predicate.LT, "B", "i").WithOffsets(-2, 0),
		}},
		{"string-only", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "s", predicate.EQ, "B", "s"),
		}},
		{"time-range", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "t", predicate.LE, "B", "t").WithOffsets(3, 0),
		}},
		{"three-way-mixed", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("B", "f", predicate.LT, "C", "f"),
			predicate.C("A", "t", predicate.GE, "C", "t").WithOffsets(0, -2),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustNew("q-"+tc.name, tc.rels, tc.conds)
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			order, err := OrderRelations(q.Conditions)
			if err != nil {
				t.Fatal(err)
			}
			rels := make([]*relation.Relation, len(order))
			for i, name := range order {
				r, err := db.Relation(name)
				if err != nil {
					t.Fatal(err)
				}
				rels[i] = r
			}
			job, err := BuildThetaJob("theta-"+tc.name, rels, q.Conditions, 5)
			if err != nil {
				t.Fatal(err)
			}
			got := resultSet(runEvalJob(t, job).Output)
			wantRS := resultSet(want)
			if !wantRS.Equal(got) {
				t.Errorf("result mismatch: got %d rows, want %d\ndiff: %v",
					got.Len(), wantRS.Len(), wantRS.Diff(got, 5))
			}
		})
	}
}

// TestJoinEvalShareGridEquivalence does the same for the share-grid
// reducer, whose equality conditions now probe hash indexes and whose
// theta residuals ride the range path.
func TestJoinEvalShareGridEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := mixedRelation("A", 60, 8, rng)
	b := mixedRelation("B", 50, 8, rng)
	c := mixedRelation("C", 40, 8, rng)
	db := newTestDB(t, a, b, c)
	cases := []struct {
		name  string
		rels  []string
		conds []predicate.Condition
	}{
		{"equi-pair", []string{"A", "B"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
		}},
		{"equi-chain", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("B", "t", predicate.EQ, "C", "t"),
		}},
		{"equi-with-residual", []string{"A", "B", "C"}, []predicate.Condition{
			predicate.C("A", "i", predicate.EQ, "B", "i"),
			predicate.C("B", "i", predicate.EQ, "C", "i"),
			predicate.C("A", "f", predicate.LT, "C", "f"),
			predicate.C("A", "s", predicate.NE, "C", "s"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustNew("q-"+tc.name, tc.rels, tc.conds)
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			rels := make([]*relation.Relation, len(tc.rels))
			for i, name := range tc.rels {
				r, err := db.Relation(name)
				if err != nil {
					t.Fatal(err)
				}
				rels[i] = r
			}
			job, err := BuildShareGridJob("grid-"+tc.name, rels, q.Conditions, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := resultSet(runEvalJob(t, job).Output)
			wantRS := resultSet(want)
			if !wantRS.Equal(got) {
				t.Errorf("result mismatch: got %d rows, want %d\ndiff: %v",
					got.Len(), wantRS.Len(), wantRS.Diff(got, 5))
			}
		})
	}
}

// TestJoinEvalIndexingPrunes runs each operator on one reducer, where
// the single reduce group holds every tuple: a nested loop would
// examine all |A|·|B| pairs at the second step alone, so the per-group
// indexes must bring CombinationsChecked below that. (Result equality
// against core.Naive is TestJoinEval{Theta,ShareGrid}Equivalence's.)
func TestJoinEvalIndexingPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randRelation("A", 120, 15, rng)
	b := randRelation("B", 100, 15, rng)
	c := randRelation("C", 80, 15, rng)
	db := newTestDB(t, a, b, c)
	rel := func(name string) *relation.Relation {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	nested := int64(a.Cardinality() * b.Cardinality())
	check := func(t *testing.T, job *mr.Job, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got := runEvalJob(t, job).Metrics.CombinationsChecked
		if got <= 0 || got >= nested {
			t.Errorf("indexing did not prune: %d combinations checked, a nested loop checks >= %d", got, nested)
		}
		t.Logf("%d combinations checked, nested loop >= %d", got, nested)
	}
	t.Run("share-grid", func(t *testing.T) {
		job, err := BuildShareGridJob("grid", []*relation.Relation{rel("A"), rel("B"), rel("C")}, predicate.Conjunction{
			predicate.C("A", "a", predicate.EQ, "B", "a"),
			predicate.C("B", "b", predicate.EQ, "C", "b"),
		}, 1, nil)
		check(t, job, err)
	})
	t.Run("theta-band", func(t *testing.T) {
		job, err := BuildThetaJob("theta", []*relation.Relation{rel("A"), rel("B")}, predicate.Conjunction{
			predicate.C("A", "a", predicate.LT, "B", "a"),
			predicate.C("A", "a", predicate.GT, "B", "a").WithOffsets(0, -5),
		}, 1)
		check(t, job, err)
	})
}

// keyRangeBySearch is keyRange as it stood on sort.Search.
func keyRangeBySearch(keys []int64, op predicate.Op, pk int64) (int, int) {
	n := len(keys)
	switch op {
	case predicate.LT:
		return sort.Search(n, func(i int) bool { return keys[i] > pk }), n
	case predicate.LE:
		return sort.Search(n, func(i int) bool { return keys[i] >= pk }), n
	case predicate.GT:
		return 0, sort.Search(n, func(i int) bool { return keys[i] >= pk })
	default:
		return 0, sort.Search(n, func(i int) bool { return keys[i] > pk })
	}
}

// TestKeyRangeMatchesSortSearch: on random ascending keys with
// duplicates, NULL keys and both ends of int64, for every length from
// empty up and every probe at, between and beyond the keys.
func TestKeyRangeMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.GT, predicate.GE}
	edge := []int64{relation.NullSortKey, relation.NullSortKey + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for n := 0; n <= 70; n++ {
		for rep := 0; rep < 20; rep++ {
			keys := make([]int64, n)
			for i := range keys {
				switch rng.Intn(8) {
				case 0:
					keys[i] = edge[rng.Intn(len(edge))]
				case 1:
					keys[i] = rng.Int63() - rng.Int63()
				default:
					keys[i] = int64(rng.Intn(2*n+1)) - int64(n) // duplicates
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			probes := append(append([]int64(nil), edge...), keys...)
			for _, k := range keys {
				if k > math.MinInt64 {
					probes = append(probes, k-1)
				}
				if k < math.MaxInt64 {
					probes = append(probes, k+1)
				}
			}
			for _, pk := range probes {
				for _, op := range ops {
					lo, hi := keyRange(keys, op, pk)
					wlo, whi := keyRangeBySearch(keys, op, pk)
					if lo != wlo || hi != whi {
						t.Fatalf("keys %v: %d %v key = [%d, %d), sort.Search gives [%d, %d)", keys, pk, op, lo, hi, wlo, whi)
					}
				}
			}
		}
	}
}

// TestSortedByKeyMatchesComparisonSort: the radix sort's permutation
// and keys are those of the (key, ordinal) comparison sort, on random,
// duplicate-heavy and negative keys, the NULL sentinel and both ends
// of int64, keys differing in one byte position alone or in its top
// bit alone, and every run length from empty to four times
// radixMinSize.
func TestSortedByKeyMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edge := []int64{relation.NullSortKey, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64}
	type gen struct {
		name string
		key  func(i, n int) int64
	}
	gens := []gen{
		{"random", func(int, int) int64 { return rng.Int63() - rng.Int63() }},
		{"duplicates", func(_, n int) int64 { return int64(rng.Intn(n/8 + 1)) }},
		{"negative", func(int, int) int64 { return -rng.Int63n(1 << 20) }},
		{"edges", func(int, int) int64 { return edge[rng.Intn(len(edge))] }},
		{"descending", func(i, _ int) int64 { return -int64(i) }},
		{"equal", func(int, int) int64 { return 42 }},
	}
	for b := 0; b < 8; b++ {
		shift := 8 * b
		gens = append(gens, gen{fmt.Sprint("byte ", b), func(int, int) int64 {
			return 0x5a5a5a5a5a5a5a5a ^ int64(uint64(rng.Intn(256))<<shift)
		}}, gen{fmt.Sprint("top bit of byte ", b), func(int, int) int64 {
			return 0x5a5a5a5a5a5a5a5a ^ int64(uint64(rng.Intn(2))<<(shift+7))
		}})
	}
	for _, g := range gens {
		for n := 0; n <= 4*radixMinSize; n++ {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = g.key(i, n)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortFunc(want, func(a, b int32) int {
				if c := cmp.Compare(keys[a], keys[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			order, sorted := sortedByKey(keys, &sortBuf{})
			if !slices.Equal(order, want) {
				t.Fatalf("%s, n=%d: order %v, comparison sort gives %v", g.name, n, order, want)
			}
			for x, i := range want {
				if sorted[x] != keys[i] {
					t.Fatalf("%s, n=%d: sorted[%d] = %d, want %d", g.name, n, x, sorted[x], keys[i])
				}
			}
		}
	}
}

// TestNarrowMatchesKeyRange: on random ascending keys, narrowing any
// window by any range condition gives keyRange's subrange intersected
// with the window, probes at MinInt64 and MaxInt64 included; when the
// two are disjoint, narrow returns an empty window inside the old one.
func TestNarrowMatchesKeyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.GT, predicate.GE}
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for n := 0; n <= 80; n++ {
		for rep := 0; rep < 10; rep++ {
			keys := make([]int64, n)
			for i := range keys {
				if rng.Intn(6) == 0 {
					keys[i] = edge[rng.Intn(len(edge))]
				} else {
					keys[i] = int64(rng.Intn(2*n+1)) - int64(n)
				}
			}
			slices.Sort(keys)
			probes := append(append([]int64(nil), edge...), keys...)
			for _, k := range keys {
				if k > math.MinInt64 {
					probes = append(probes, k-1)
				}
				if k < math.MaxInt64 {
					probes = append(probes, k+1)
				}
			}
			for w := 0; w < 6; w++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				for _, pk := range probes {
					for _, op := range ops {
						gl, gh := narrow(keys, lo, hi, op, pk)
						l, h := keyRange(keys, op, pk)
						wl, wh := max(l, lo), min(h, hi)
						if wl < wh {
							if gl != wl || gh != wh {
								t.Fatalf("keys %v, window [%d, %d): %d %v key narrows to [%d, %d), want [%d, %d)", keys, lo, hi, pk, op, gl, gh, wl, wh)
							}
						} else if gl != gh || gl < lo || gl > hi {
							t.Fatalf("keys %v, window [%d, %d): %d %v key narrows to [%d, %d), want an empty window inside", keys, lo, hi, pk, op, gl, gh)
						}
					}
				}
			}
		}
	}
}
