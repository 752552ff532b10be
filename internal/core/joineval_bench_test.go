package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// benchStationRelation builds a relation of mobile station names (the
// workloads.StationName shape: city segment before the zero-padded
// code, so name order differs from code order) plus an int column.
func benchStationRelation(name string, n, stations int, seed int64) *relation.Relation {
	regions := []string{"guangzhou", "shenzhen", "dongguan", "foshan"}
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "bs", Kind: relation.KindString},
		relation.Column{Name: "bt", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		c := rng.Intn(stations)
		r.MustAppend(relation.Tuple{
			relation.Str(fmt.Sprintf("base-station-%s-%06d", regions[c%len(regions)], c)),
			relation.Int(int64(rng.Intn(1 << 20))),
		})
	}
	return r
}

// BenchmarkStringJoin measures the dictionary-keyed string condition
// fast path against the pre-interning relation.Compare path, on the
// reduce-side join evaluation itself: one reduce group per iteration,
// matches counted rather than materialised, so condition evaluation —
// not output construction — dominates the timing. string-equi is a
// station-name equality probe; string-band anchors two range
// conditions on one relation (strings admit no offsets, so a band
// needs a third relation: t1.bs ≤ t3.bs AND t2.bs ≥ t3.bs). The
// fallback variants skip InternStrings, so the string conditions
// compile to the generic Compare path exactly as before interning.
func BenchmarkStringJoin(b *testing.B) {
	equiConds := predicate.Conjunction{
		predicate.C("A", "bs", predicate.EQ, "B", "bs"),
	}
	bandConds := predicate.Conjunction{
		predicate.C("A", "bs", predicate.LE, "C", "bs"),
		predicate.C("B", "bs", predicate.GE, "C", "bs"),
	}
	for _, v := range []struct {
		name     string
		interned bool
		n        int
		rels     []string
		conds    predicate.Conjunction
	}{
		// The band scans cubically many combinations, so it runs on
		// smaller groups than the equi probe.
		{"string-equi/interned", true, 4000, []string{"A", "B"}, equiConds},
		{"string-equi/fallback", false, 4000, []string{"A", "B"}, equiConds},
		{"string-band/interned", true, 250, []string{"A", "B", "C"}, bandConds},
		{"string-band/fallback", false, 250, []string{"A", "B", "C"}, bandConds},
	} {
		b.Run(v.name, func(b *testing.B) {
			rels := make([]*relation.Relation, len(v.rels))
			groups := make([][]relation.Tuple, len(v.rels))
			for i, name := range v.rels {
				r := benchStationRelation(name, v.n, 500, int64(i+1))
				if v.interned {
					relation.InternStrings(r)
				}
				rels[i] = r
				groups[i] = r.Tuples
			}
			bound, err := bindConditions(v.conds, rels)
			if err != nil {
				b.Fatal(err)
			}
			je := newJoinEval(rels, bound)
			var matches int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matches = 0
				ge := je.newGroupEval(groups)
				ge.run(&mr.ReduceContext{}, func([]int32) { matches++ })
			}
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// BenchmarkSortedRun measures sortedByKey, the sorted-run index of a
// reduce group's range step: runs on both sides of radixMinSize (most
// of q1_merge's runs are shorter than it), a band-scan group and a
// large one. The keys are the band-scan workload's: seconds spread
// over 61 days, which differ in their low three bytes.
func BenchmarkSortedRun(b *testing.B) {
	for _, n := range []int{16, 48, 64, 1024, 32768} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = rng.Int63n(61 * 86400)
			}
			b.ReportAllocs()
			for b.Loop() {
				sortedRunSink, _ = sortedByKey(keys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}

var sortedRunSink []int32
