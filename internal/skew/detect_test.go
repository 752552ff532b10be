package skew

import (
	"math/rand"
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
	opts := DefaultOptions()

	exactTS := relation.Analyze(r, 3000, rand.New(rand.NewSource(1)))
	AnnotateTable(exactTS, r, opts) // cardinality ≤ ExactThreshold → exact pass
	sampledTS := relation.Analyze(r, 600, rand.New(rand.NewSource(1)))
	AnnotateTable(sampledTS, nil, opts) // no relation → sketch over sample

	exact, sampled := exactTS.HotKeys["k"], sampledTS.HotKeys["k"]
	if len(exact) == 0 || len(sampled) == 0 {
		t.Fatalf("no hot keys detected: exact %d sampled %d", len(exact), len(sampled))
	}
	// The top key must agree, and its fraction estimate must be close.
	if exact[0].Value.String() != sampled[0].Value.String() {
		t.Errorf("top key mismatch: exact %v sampled %v", exact[0].Value, sampled[0].Value)
	}
	if d := exact[0].Frac - sampled[0].Frac; d > 0.08 || d < -0.08 {
		t.Errorf("top-key fraction: exact %.3f vs sampled %.3f", exact[0].Frac, sampled[0].Frac)
	}
	// Every exact heavy hitter above 1.5× MinFrac should be recalled by
	// the sampled pass.
	got := map[string]bool{}
	for _, hk := range sampled {
		got[hk.Value.String()] = true
	}
	for _, hk := range exact {
		if hk.Frac >= 1.5*opts.MinFrac && !got[hk.Value.String()] {
			t.Errorf("exact heavy hitter %v (frac %.3f) missed by sampled pass", hk.Value, hk.Frac)
		}
	}
}

// TestAnnotateUniformColumn: a near-uniform column yields a measured-
// but-empty report, not nil.
func TestAnnotateUniformColumn(t *testing.T) {
	r := zipfRel("U", 2000, 1.2, 9)
	ts := relation.Analyze(r, 2000, nil)
	AnnotateTable(ts, r, DefaultOptions())
	if ts.HotKeys == nil {
		t.Fatal("HotKeys nil after annotation")
	}
	v, ok := ts.HotKeys["v"]
	if !ok {
		t.Fatal("uniform column v has no report entry")
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
	opts := DefaultOptions()
	AnnotateTable(a, r, opts)
	AnnotateTable(b, r, opts)
	ha, hb := a.HotKeys["k"], b.HotKeys["k"]
	if len(ha) != len(hb) {
		t.Fatalf("report lengths differ: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if x, y := ha[i], hb[i]; !relation.Identical(x.Value, y.Value) || x.Count != y.Count || x.Frac != y.Frac {
			t.Errorf("entry %d differs: %+v vs %+v", i, ha[i], hb[i])
		}
	}
}

// compositeRel builds a relation with a hot (k1, k2) combination
// carrying hotFrac of the tuples; the remaining tuples draw both key
// columns uniformly.
func compositeRel(name string, n int, hotFrac float64, seed int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k1", Kind: relation.KindInt},
		relation.Column{Name: "k2", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(seed))
	hot := int(float64(n) * hotFrac)
	for i := 0; i < n; i++ {
		k1, k2 := int64(7), int64(7)
		if i >= hot {
			k1, k2 = int64(rng.Intn(50)), int64(rng.Intn(50))
		}
		r.MustAppend(relation.Tuple{
			relation.Int(k1), relation.Int(k2), relation.Int(int64(rng.Intn(1000))),
		})
	}
	return r
}

// TestJointHotKeysExact: the exact pass finds a hot value combination
// with the right fraction, in the requested column order.
func TestJointHotKeysExact(t *testing.T) {
	r := compositeRel("C", 2000, 0.3, 11)
	ts := relation.Analyze(r, 2000, rand.New(rand.NewSource(1)))
	hot := JointHotKeys(ts, r, []string{"k1", "k2"}, DefaultOptions())
	if len(hot) == 0 {
		t.Fatal("no joint heavy hitter on a 30% combination")
	}
	top := hot[0]
	if len(top.Values) != 2 || top.Values[0].String() != "7" || top.Values[1].String() != "7" {
		t.Fatalf("top group = %v, want (7, 7)", top.Values)
	}
	if top.Frac < 0.25 || top.Frac > 0.35 {
		t.Errorf("top group frac = %.3f, want ~0.3", top.Frac)
	}
	// Column order is preserved: asking (k2, k1) flips the vector.
	flipped := JointHotKeys(ts, r, []string{"k2", "k1"}, DefaultOptions())
	if len(flipped) == 0 || len(flipped[0].Values) != 2 {
		t.Fatal("flipped column order lost the group")
	}
}

// TestJointHotKeysSampled: the sketch-over-sample path recalls the
// dominant combination with a close fraction estimate.
func TestJointHotKeysSampled(t *testing.T) {
	r := compositeRel("C", 20000, 0.25, 12)
	ts := relation.Analyze(r, 800, rand.New(rand.NewSource(1)))
	hot := JointHotKeys(ts, nil, []string{"k1", "k2"}, DefaultOptions())
	if len(hot) == 0 {
		t.Fatal("sampled pass missed a 25% combination")
	}
	if d := hot[0].Frac - 0.25; d > 0.08 || d < -0.08 {
		t.Errorf("sampled frac = %.3f, want ~0.25", hot[0].Frac)
	}
	if hot[0].Count < 1000 {
		t.Errorf("scaled count = %d, want O(5000)", hot[0].Count)
	}
}

// TestJointHotKeysUnknownColumn: unknown names yield nil rather than
// a bogus report.
func TestJointHotKeysUnknownColumn(t *testing.T) {
	r := compositeRel("C", 100, 0.5, 13)
	ts := relation.Analyze(r, 100, rand.New(rand.NewSource(1)))
	if hot := JointHotKeys(ts, r, []string{"k1", "nope"}, DefaultOptions()); hot != nil {
		t.Errorf("unknown column produced %v", hot)
	}
	if hot := JointHotKeys(ts, r, nil, DefaultOptions()); hot != nil {
		t.Errorf("empty column set produced %v", hot)
	}
}

// TestJointHotKeysUniform: a relation without a dominant combination
// reports nothing.
func TestJointHotKeysUniform(t *testing.T) {
	r := compositeRel("U", 2000, 0, 14) // all-uniform keys
	ts := relation.Analyze(r, 2000, rand.New(rand.NewSource(1)))
	if hot := JointHotKeys(ts, r, []string{"k1", "k2"}, DefaultOptions()); len(hot) != 0 {
		t.Errorf("uniform data produced joint heavy hitters: %v", hot)
	}
}
