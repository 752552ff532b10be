package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// anchorVals builds the Compare-sorted value list anchorRange expects:
// candidate values with the anchor's offset already applied.
func anchorVals(raw []int64, off float64) []relation.Value {
	vals := make([]relation.Value, len(raw))
	for i, v := range raw {
		vals[i] = relation.Int(v).Add(off)
	}
	sort.SliceStable(vals, func(a, b int) bool { return relation.Compare(vals[a], vals[b]) < 0 })
	return vals
}

var rangeOps = []predicate.Op{predicate.LT, predicate.LE, predicate.GT, predicate.GE, predicate.EQ}

// TestAnchorRangeBoundaries pins the subrange semantics of every range
// operator on runs with duplicate anchor values: the returned [lo, hi)
// must hold exactly the candidates satisfying "pv op cand".
func TestAnchorRangeBoundaries(t *testing.T) {
	// Duplicates at both ends and in the middle.
	vals := anchorVals([]int64{1, 1, 3, 3, 3, 5, 7, 7}, 0)
	probes := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, op := range rangeOps {
		for _, p := range probes {
			pv := relation.Int(p)
			lo, hi := anchorRange(vals, op, pv)
			if lo < 0 || hi > len(vals) || lo > hi {
				t.Fatalf("%v probe %d: invalid range [%d, %d)", op, p, lo, hi)
			}
			for i, v := range vals {
				want := op.Eval(relation.Compare(pv, v))
				got := i >= lo && i < hi
				if got != want {
					t.Errorf("%v probe %d: candidate %v at %d: in range %v, satisfies %v",
						op, p, v, i, got, want)
				}
			}
		}
	}
}

// TestAnchorRangeOffsets exercises non-zero additive constants on both
// sides: the candidate run carries its offset baked in (as the
// evaluator pre-applies it), the probe value carries its own.
func TestAnchorRangeOffsets(t *testing.T) {
	raw := []int64{2, 2, 4, 6, 6, 9}
	for _, candOff := range []float64{-3, 0, 2.5} {
		vals := anchorVals(raw, candOff)
		for _, probeOff := range []float64{-1.5, 0, 4} {
			for _, op := range rangeOps {
				for p := int64(-2); p <= 12; p++ {
					pv := relation.Int(p).Add(probeOff)
					lo, hi := anchorRange(vals, op, pv)
					for i, v := range vals {
						want := op.Eval(relation.Compare(pv, v))
						got := i >= lo && i < hi
						if got != want {
							t.Fatalf("%v probe %d%+g candOff %+g: candidate %v at %d: in range %v, satisfies %v",
								op, p, probeOff, candOff, v, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAnchorRangeBruteForce cross-checks random runs (with heavy
// duplication) against a brute-force filter for every operator.
func TestAnchorRangeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) // includes the empty run
		raw := make([]int64, n)
		for i := range raw {
			raw[i] = int64(rng.Intn(10))
		}
		off := []float64{0, 1, -2, 0.5}[rng.Intn(4)]
		vals := anchorVals(raw, off)
		pv := relation.Int(int64(rng.Intn(12) - 1))
		for _, op := range rangeOps {
			lo, hi := anchorRange(vals, op, pv)
			var want []int
			for i, v := range vals {
				if op.Eval(relation.Compare(pv, v)) {
					want = append(want, i)
				}
			}
			if len(want) != hi-lo {
				t.Fatalf("trial %d op %v: range [%d,%d) has %d candidates, brute force %d",
					trial, op, lo, hi, hi-lo, len(want))
			}
			for k, i := range want {
				if i != lo+k {
					t.Fatalf("trial %d op %v: satisfying candidates not contiguous at %d", trial, op, i)
				}
			}
		}
	}
}

// TestAnchorRangeNEFullRange documents the NE fallback: never used as
// an anchor, it returns the full run.
func TestAnchorRangeNEFullRange(t *testing.T) {
	vals := anchorVals([]int64{1, 2, 3}, 0)
	if lo, hi := anchorRange(vals, predicate.NE, relation.Int(2)); lo != 0 || hi != len(vals) {
		t.Errorf("NE anchor returned [%d, %d), want full range", lo, hi)
	}
}

// BenchmarkThetaBandJob runs the shuffle-bound case end to end through
// the engine: a 60 k-row relation band-joined with itself (t1.bt < t2.bt
// < t1.bt+5) as one Hilbert job on 16 reducers, where nearly all the
// work is carrying the ~390 k replicated pairs from emit to the
// reducers' range probes.
func BenchmarkThetaBandJob(b *testing.B) {
	schema := relation.MustSchema(
		relation.Column{Name: "bt", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindInt},
		relation.Column{Name: RowIDColumn, Kind: relation.KindInt},
	)
	rng := rand.New(rand.NewSource(17))
	t1, t2 := relation.New("t1", schema), relation.New("t2", schema)
	for i := 0; i < 60000; i++ {
		row := relation.Tuple{relation.Int(rng.Int63n(61 * 86400)), relation.Int(rng.Int63n(3600)), relation.Int(int64(i))}
		t1.MustAppend(row)
		t2.MustAppend(row)
	}
	conds := predicate.Conjunction{
		predicate.C("t1", "bt", predicate.LT, "t2", "bt"),
		predicate.C("t1", "bt", predicate.GT, "t2", "bt").WithOffsets(5, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		job, _, err := BuildThetaJob("band", []*relation.Relation{t1, t2}, conds, 16, 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := mr.Run(context.Background(), mr.DefaultConfig(), nil, job)
		if err != nil {
			b.Fatal(err)
		}
		pairs += res.Metrics.PairsEmitted
	}
	b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
}
