package skew

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

func zipfRel(name string, n int, s float64, seed int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, 999)
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(z.Uint64())),
			relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// TestAnnotateExactVsSampled: the sketch-over-sample path agrees with
// the exact pass on which keys are heavy and roughly on their
// fractions.
func TestAnnotateExactVsSampled(t *testing.T) {
	r := zipfRel("Z", 3000, 1.2, 5)
	exactTS := relation.Analyze(r, 3000, rand.New(rand.NewSource(1)))
	AnnotateTable(exactTS, r) // cardinality ≤ ExactThreshold → exact pass
	sampledTS := relation.Analyze(r, 600, rand.New(rand.NewSource(1)))
	AnnotateTable(sampledTS, nil) // no relation → sketch over sample

	exact, sampled := exactTS.HotKeys["k"], sampledTS.HotKeys["k"]
	if len(exact) == 0 || len(sampled) == 0 {
		t.Fatalf("no hot keys detected: exact %d sampled %d", len(exact), len(sampled))
	}
	// The top key must agree, and its fraction estimate must be close.
	if exact[0].Values[0].String() != sampled[0].Values[0].String() {
		t.Errorf("top key mismatch: exact %v sampled %v", exact[0].Values, sampled[0].Values)
	}
	if d := exact[0].Frac - sampled[0].Frac; d > 0.08 || d < -0.08 {
		t.Errorf("top-key fraction: exact %.3f vs sampled %.3f", exact[0].Frac, sampled[0].Frac)
	}
	// Every exact heavy hitter above 1.5× MinFrac should be recalled by
	// the sampled pass.
	got := map[string]bool{}
	for _, hk := range sampled {
		got[hk.Values[0].String()] = true
	}
	for _, hk := range exact {
		if hk.Frac >= 1.5*MinFrac && !got[hk.Values[0].String()] {
			t.Errorf("exact heavy hitter %v (frac %.3f) missed by sampled pass", hk.Values, hk.Frac)
		}
	}
}

// TestAnnotateUniformColumn: a near-uniform column yields a measured-
// but-empty report, not nil — a table that was never analysed is the
// one with a nil map.
func TestAnnotateUniformColumn(t *testing.T) {
	r := zipfRel("U", 2000, 1.2, 9)
	ts := relation.Analyze(r, 2000, nil)
	if ts.HotKeys != nil {
		t.Fatal("HotKeys non-nil before annotation")
	}
	AnnotateTable(ts, r)
	if ts.HotKeys == nil {
		t.Fatal("HotKeys nil after annotation")
	}
	v, ok := ts.HotKeys["v"]
	if !ok || v == nil {
		t.Fatalf("uniform column v has no report entry (present %v, nil %v)", ok, v == nil)
	}
	if len(v) != 0 {
		t.Errorf("uniform column v reported hot keys: %v", v)
	}
}

// TestAnnotateDeterministic: two annotations from identically seeded
// analyses produce identical reports.
func TestAnnotateDeterministic(t *testing.T) {
	r := zipfRel("D", 9000, 1.2, 13) // above ExactThreshold → sketch path
	a := relation.Analyze(r, 500, rand.New(rand.NewSource(4)))
	b := relation.Analyze(r, 500, rand.New(rand.NewSource(4)))
	AnnotateTable(a, r)
	AnnotateTable(b, r)
	ha, hb := a.HotKeys["k"], b.HotKeys["k"]
	if len(ha) != len(hb) {
		t.Fatalf("report lengths differ: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if x, y := ha[i], hb[i]; !relation.Identical(x.Values[0], y.Values[0]) || x.Count != y.Count || x.Frac != y.Frac {
			t.Errorf("entry %d differs: %+v vs %+v", i, ha[i], hb[i])
		}
	}
}

// compositeRel builds a relation with the hot (k1, k2) combination
// (7, 9) carrying hotFrac of the tuples; the remaining tuples draw both
// key columns uniformly.
func compositeRel(name string, n int, hotFrac float64, seed int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k1", Kind: relation.KindInt},
		relation.Column{Name: "k2", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(seed))
	hot := int(float64(n) * hotFrac)
	for i := 0; i < n; i++ {
		k1, k2 := int64(7), int64(9)
		if i >= hot {
			k1, k2 = int64(rng.Intn(50)), int64(rng.Intn(50))
		}
		r.MustAppend(relation.Tuple{
			relation.Int(k1), relation.Int(k2), relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// TestHotKeys drives the one detector over column sets of every size.
func TestHotKeys(t *testing.T) {
	// nullHot is the 30 % combination with k2 NULL in every row
	// carrying it: k1 alone is still hot, the pair is not.
	nullHot := compositeRel("N", 2000, 0.3, 15)
	for _, tup := range nullHot.Tuples[:600] {
		tup[1] = relation.Null()
	}
	cases := []struct {
		name   string
		rel    *relation.Relation
		sample int
		exact  bool // hand the relation to the detector (≤ ExactThreshold tuples: counted exactly)
		cols   []string
		// want is the top key's values; nil with wantNil unset means
		// "measured, nothing hot".
		want     []string
		wantFrac float64 // ± 0.08
		wantNil  bool
	}{
		{name: "exact combination", rel: compositeRel("C", 2000, 0.3, 11), sample: 2000, exact: true,
			cols: []string{"k1", "k2"}, want: []string{"7", "9"}, wantFrac: 0.3},
		{name: "column order flips Values", rel: compositeRel("C", 2000, 0.3, 11), sample: 2000, exact: true,
			cols: []string{"k2", "k1"}, want: []string{"9", "7"}, wantFrac: 0.3},
		{name: "sampled combination", rel: compositeRel("C", 20000, 0.25, 12), sample: 800,
			cols: []string{"k1", "k2"}, want: []string{"7", "9"}, wantFrac: 0.25},
		{name: "sample holding the whole relation counts exactly", rel: compositeRel("C", 2000, 0.3, 11), sample: 2000,
			cols: []string{"k1", "k2"}, want: []string{"7", "9"}, wantFrac: 0.3},
		{name: "uniform combination", rel: compositeRel("U", 2000, 0, 14), sample: 2000, exact: true,
			cols: []string{"k1", "k2"}},
		{name: "NULL in any column removes the row", rel: nullHot, sample: 2000, exact: true,
			cols: []string{"k1", "k2"}},
		{name: "the other column of a NULL row stays hot", rel: nullHot, sample: 2000, exact: true,
			cols: []string{"k1"}, want: []string{"7"}, wantFrac: 0.3},
		{name: "unknown column", rel: compositeRel("C", 100, 0.5, 13), sample: 100, exact: true,
			cols: []string{"k1", "nope"}, wantNil: true},
		{name: "empty set", rel: compositeRel("C", 100, 0.5, 13), sample: 100, exact: true,
			wantNil: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := relation.Analyze(tc.rel, tc.sample, rand.New(rand.NewSource(1)))
			var r *relation.Relation
			if tc.exact {
				r = tc.rel
			}
			hot := HotKeys(ts, r, tc.cols)
			if tc.wantNil {
				if hot != nil {
					t.Fatalf("got %v, want nil", hot)
				}
				return
			}
			if tc.want == nil {
				if len(hot) != 0 {
					t.Fatalf("got %v, want nothing hot", hot)
				}
				return
			}
			if len(hot) == 0 {
				t.Fatalf("no heavy hitter on a %.0f%% combination", 100*tc.wantFrac)
			}
			top := hot[0]
			var got []string
			for _, v := range top.Values {
				got = append(got, v.String())
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("top key = %v, want %v", got, tc.want)
			}
			if d := top.Frac - tc.wantFrac; d > 0.08 || d < -0.08 {
				t.Errorf("top key frac = %.3f, want ~%.2f", top.Frac, tc.wantFrac)
			}
			if want := top.Frac * float64(tc.rel.Cardinality()); math.Abs(float64(top.Count)-want) > 0.5 {
				t.Errorf("top key count = %d, want frac × cardinality = %.1f", top.Count, want)
			}
		})
	}
}

// TestHotKeysOneColumnIsASetOfOne: the catalog's per-column report is
// the detector over that column as a set of one, down to Count and
// Frac, and Report serves it from the cache.
func TestHotKeysOneColumnIsASetOfOne(t *testing.T) {
	for _, n := range []int{3000, 9000} { // exact, then sketched
		r := zipfRel("Z", n, 1.2, 5)
		ts := relation.Analyze(r, 600, rand.New(rand.NewSource(1)))
		AnnotateTable(ts, r)
		cached, direct := ts.HotKeys["k"], HotKeys(ts, r, []string{"k"})
		if len(cached) == 0 || len(cached) != len(direct) {
			t.Fatalf("n=%d: cached report has %d keys, direct detection %d", n, len(cached), len(direct))
		}
		for i := range cached {
			c, d := cached[i], direct[i]
			if len(c.Values) != 1 || !relation.Identical(c.Values[0], d.Values[0]) || c.Count != d.Count || c.Frac != d.Frac {
				t.Errorf("n=%d key %d: cached %+v, direct %+v", n, i, c, d)
			}
		}
		if rep := Report(ts, []string{"k"}); len(rep) != len(cached) || &rep[0] != &cached[0] {
			t.Errorf("n=%d: Report did not return the catalog's cached report", n)
		}
	}
}

// TestHotKeysRepeatedKeyAllocatesNothing: on the exact path only a
// key's first occurrence allocates — doubling the rows without adding
// a key costs the same allocations.
func TestHotKeysRepeatedKeyAllocatesNothing(t *testing.T) {
	allocs := func(n int) float64 {
		r := relation.New("A", relation.MustSchema(
			relation.Column{Name: "k", Kind: relation.KindInt},
			relation.Column{Name: "s", Kind: relation.KindString},
		))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i % 40)), relation.Str(fmt.Sprintf("name-%d", i%40))})
		}
		ts := relation.Analyze(r, 100, rand.New(rand.NewSource(1)))
		return testing.AllocsPerRun(10, func() { HotKeys(ts, r, []string{"k", "s"}) })
	}
	if a, b := allocs(2000), allocs(4000); a != b {
		t.Errorf("2000 rows over 40 keys: %v allocations; 4000 rows over the same keys: %v", a, b)
	}
}
